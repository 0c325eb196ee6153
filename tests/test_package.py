import re
from pathlib import Path

import groupalign
from groupalign import errors

EXPORTS = {
    "AlignmentResult",
    "Group",
    "GroupAlignError",
    "GroupAlignment",
    "NonFiniteError",
    "OptimConfig",
    "PointSet",
    "align",
    "fish_shape",
    "make_group",
}


def test_exports_are_what_align_and_the_readme_use():
    """The package exports exactly the ten names, each resolves, and the
    README's library example imports only exported names."""
    assert set(groupalign.__all__) == EXPORTS
    assert len(groupalign.__all__) == len(EXPORTS)
    for name in EXPORTS:
        assert getattr(groupalign, name) is not None
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    [imported] = re.findall(r"^from groupalign import (.+)$", library_use, re.M)
    names = {n.strip() for n in imported.split(",")}
    assert names and names <= EXPORTS


def test_three_exception_types():
    """groupalign.errors defines exactly GroupAlignError, a ValueError, and
    its two subclasses ParseError and NonFiniteError."""
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert defined == {"GroupAlignError", "ParseError", "NonFiniteError"}
    assert issubclass(errors.GroupAlignError, ValueError)
    assert issubclass(errors.ParseError, errors.GroupAlignError)
    assert issubclass(errors.NonFiniteError, errors.GroupAlignError)
