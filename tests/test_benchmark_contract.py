"""The benchmark's contract with the package, checked in the test suite.

perfbench/probes.py wraps package functions by module attribute, and
perfbench/run.py requires every wrapped function to be called and counts
2 * layers + groups Adam calls per step. These tests load probes.py by
path, unchanged, and check both against the package as it is.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from groupalign import optimizer
from groupalign.geometry import PointSet
from groupalign.shapes import fish_shape
from groupalign.synthesis import make_group

PROBES = Path(__file__).parents[1] / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look a class's module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_site_resolves(probes):
    for site in probes.SITES:
        probes._resolve(site)


def test_one_step_makes_the_calls_the_benchmark_requires(probes):
    fish = PointSet(fish_shape().points[::4])
    groups = [make_group(fish, 3, 0.3, seed=s, group_id=f"g{s}") for s in (1, 2)]
    cfg = optimizer.OptimConfig(max_steps=1, latent_dim=4, hidden=(6, 5))
    tracer = probes.Tracer()
    with probes.Patches() as patches:
        tracer.install(patches, probes.expected_sites(via_cli=False))
        res = optimizer.align(groups, cfg)
    calls = Counter(span.name for span in tracer.spans)
    assert {s.span for s in probes.expected_sites(via_cli=False)} <= set(calls)
    layers = len(res.decoder_params.layers)
    assert calls["optimizer.adam_step"] == 2 * layers + len(groups)
    for name in ("decoder.forward", "loss.regularized_loss", "loss.normalized_cd"):
        assert calls[name] >= 1
