"""Pass-through wrappers that time groupalign from outside.

The benchmark never edits the program. It replaces a public function, at
the module attribute its caller looks it up by, with a wrapper that takes
timestamps around the call and returns the original result untouched. A
function that one module imports by name from another (``groupalign.cli``
imports ``align`` and the ``pointio`` functions that way) is patched in
the importing module, because that is where the call resolves it.
"""
from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

clock = time.perf_counter


class CoverageError(RuntimeError):
    """A function the benchmark wraps is missing, or was never called."""


@dataclass(frozen=True)
class Site:
    """One patch point: ``module.attr`` (attr may be ``Class.method``)."""

    module: str
    attr: str
    span: str  # span name, "<layer>.<function>"
    reached_by: str  # "library", "cli" or "all": workloads that must call it

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


def _macs(layers, rows: int) -> int:
    """Multiply-adds of one pass of ``rows`` rows through the matmuls."""
    return rows * sum(w.shape[0] * w.shape[1] for w, _ in layers)


def _forward_info(args, kwargs):
    layers, inputs = args[0], args[1]
    widths = [layers[0][0].shape[1]] + [w.shape[0] for w, _ in layers]
    rows = inputs.shape[0]
    return {"flop": 2 * _macs(layers, rows), "act_bytes": 8 * rows * sum(widths)}


def _backward_info(args, kwargs):
    layers, upstream = args[0], args[2]
    # Each layer does grad.T @ h_prev (dW) and grad @ W (input gradient).
    return {"flop": 4 * _macs(layers, upstream.shape[0])}


def _chamfer_info(args, kwargs):
    arrays = args[0]
    k = len(arrays)
    rows = sum(a.shape[0] for a in arrays)
    return {"trees": k, "queries": (k - 1) * rows}


# Shape-derived counts recorded with the span; labelled "computed" in the
# output because they come from argument shapes, not from counters.
SPAN_INFO: dict[str, Callable] = {
    "decoder.run_layers": _forward_info,
    "decoder.run_layers_backward": _backward_info,
    "loss.alignment_terms": _chamfer_info,
}

SITES = (
    Site("groupalign.decoder", "run_layers", "decoder.run_layers", "all"),
    Site("groupalign.decoder", "run_layers_backward", "decoder.run_layers_backward", "all"),
    Site("groupalign.decoder", "forward", "decoder.forward", "all"),
    Site("groupalign.loss", "alignment_terms", "loss.alignment_terms", "all"),
    Site("groupalign.loss", "drift_penalty", "loss.drift_penalty", "all"),
    Site("groupalign.loss", "regularized_loss", "loss.regularized_loss", "all"),
    Site("groupalign.loss", "normalized_cd", "loss.normalized_cd", "all"),
    Site("groupalign.optimizer", "align", "optimizer.align", "library"),
    Site("groupalign.cli", "align", "optimizer.align", "cli"),
    Site("groupalign.optimizer", "adam_step", "optimizer.adam_step", "all"),
    Site("groupalign.optimizer", "lr_at", "optimizer.lr_at", "all"),
    Site("groupalign.optimizer", "converged", "optimizer.converged", "all"),
    Site("groupalign.cli", "main", "cli.main", "cli"),
    Site("groupalign.cli", "read_manifest", "pointio.read_manifest", "cli"),
    Site("groupalign.cli", "load_groups", "pointio.load_groups", "cli"),
    Site("groupalign.cli", "write_point_set", "pointio.write_point_set", "cli"),
    Site("groupalign.cli", "write_manifest", "pointio.write_manifest", "cli"),
    Site("groupalign.cli", "write_loss_trace", "pointio.write_loss_trace", "cli"),
    Site("groupalign.pointio", "RunReport.write_csv", "pointio.RunReport.write_csv", "cli"),
)

SITE_BY_LABEL = {s.label: s for s in SITES}


def expected_sites(via_cli: bool) -> list[Site]:
    want = "cli" if via_cli else "library"
    return [s for s in SITES if s.reached_by in ("all", want)]


def _resolve(site: Site):
    """Return (owner, attribute name, current value); CoverageError if absent."""
    try:
        owner = importlib.import_module(site.module)
        *path, name = site.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        current = getattr(owner, name)
    except (ImportError, AttributeError) as exc:
        raise CoverageError(f"{site.label} not found: {exc}") from exc
    if not callable(current):
        raise CoverageError(f"{site.label} is not callable")
    return owner, name, current


class Patches:
    """Installed wrappers, removed in reverse order by ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, site: Site, make: Callable[[Callable], Callable]) -> None:
        owner, name, current = _resolve(site)
        setattr(owner, name, make(current))
        self._undo.append((owner, name, current))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def site(label: str) -> Site:
    return SITE_BY_LABEL[label]


class SetupReached(Exception):
    """Raised by a set-up-only probe to end a run where its first step starts."""


class StepProbe:
    """The untraced run's only probes: when the first decoder forward pass
    starts (the end of set-up) and when each step's single
    ``converged`` call returns (the end of that step).

    With ``setup_only`` the first forward pass raises ``SetupReached``
    instead, so set-up can be sampled many times at little cost.
    """

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.first_forward: float | None = None
        self.step_ends: list[float] = []

    def install(self, patches: Patches) -> None:
        def on_forward(fn):
            def run_layers(*args, **kwargs):
                if self.first_forward is None:
                    self.first_forward = clock()
                    if self.setup_only:
                        raise SetupReached
                return fn(*args, **kwargs)

            return run_layers

        def on_converged(fn):
            ends = self.step_ends

            def converged(*args, **kwargs):
                out = fn(*args, **kwargs)
                ends.append(clock())
                return out

            return converged

        patches.wrap(site("groupalign.decoder.run_layers"), on_forward)
        patches.wrap(site("groupalign.optimizer.converged"), on_converged)

    def check_called(self) -> None:
        if self.first_forward is None:
            raise CoverageError("groupalign.decoder.run_layers was never called")
        if not self.step_ends:
            raise CoverageError("groupalign.optimizer.converged was never called")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    run_id: int
    thread: int
    info: dict | None


class Tracer:
    """Records one span per call of every wrapped function.

    Parents come from a per-thread stack of open spans. A span opened on a
    worker thread with nothing open there (the optimizer's loss pool) takes
    the innermost span open on the main thread, which is blocked inside
    ``align`` waiting for it. Spans stay in memory until the benchmark
    writes them out at the end.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, patches: Patches, sites) -> None:
        for s in sites:
            patches.wrap(s, lambda fn, s=s: self._wrapper(s, fn))

    def _wrapper(self, s: Site, fn: Callable) -> Callable:
        info = SPAN_INFO.get(s.span)
        name, label = s.span, s.label

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(
                    Span(
                        span_id, name, label, start, end, parent, self.run_id,
                        threading.get_ident(),
                        info(args, kwargs) if info is not None else None,
                    )
                )

        return traced

    def run_spans(self, run_id: int) -> list[Span]:
        return [sp for sp in self.spans if sp.run_id == run_id]
