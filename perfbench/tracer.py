"""Spans around the public functions of lora_sic, recorded from outside.

:func:`install` replaces every public function of the ``cli``,
``experiments``, ``analytic``, ``geometry``, ``specfun`` and ``mcsim``
modules with a wrapper, on every module attribute that binds it (for
example ``experiments.coverage``, ``cli.sweep``, ``analytic.hyp2f1_1b`` and
``analytic.ring_of``).  A wrapper appends one span ``(op, name, start, end,
parent, tag)`` to its tracer's in-memory list; nothing is written until the
caller asks.  :class:`Aggregate` folds the spans of each op into the
per-layer samples and counts the benchmark reports.

Spans are recorded on the calling thread's stack only, so trace runs use
``workers=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "experiments", "analytic", "geometry", "specfun", "mcsim")

# Branch cutovers of specfun.hyp2f1_1b at the seed commit.
_DIRECT_MIN_Z = -0.5
_PFAFF_MIN_Z = -1.5


def hyp2f1_branch(b: float, z: float) -> str:
    if z == 0.0 or b == 1.0:
        return "closed"
    if z >= _DIRECT_MIN_Z:
        return "direct"
    if z >= _PFAFF_MIN_Z:
        return "pfaff"
    return "reflect"


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: object = None) -> object:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


_TAGGERS = {
    "experiments.sweep": lambda a, k: (a[0].variable, len(a[0].grid())),
    "experiments.find_alpha_for_target": lambda a, k: bool(_arg(a, k, 3, "with_sic")),
    "specfun.hyp2f1_1b": lambda a, k: hyp2f1_branch(a[0], a[1]),
    "mcsim.estimate": lambda a, k: (_arg(a, k, 3, "n_trials"), _arg(a, k, 5, "workers", 1)),
}


class Tracer:
    """In-memory span list of the ops traced so far (``op`` is the current op id)."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagger = _TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, start, end, stack[-1] if stack else -1, tag)

        return traced

    def take(self) -> list:
        """Spans recorded since the last call, with parents as list indices."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def install(tracer: Tracer) -> None:
    """Wrap every public function of :data:`MODULES` wherever lora_sic binds it."""
    modules = [importlib.import_module(f"lora_sic.{name}") for name in MODULES]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "lora_sic" and not name.startswith("lora_sic."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def _self_times(spans: list) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, _, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


class Aggregate:
    """Per-layer samples and counts folded from traced ops."""

    SAMPLE_CAP = 100_000
    RAW_OPS = 3  # ops whose raw spans are kept for writing out

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.ops = 0
        self.busy_s = 0.0
        self.over_wall = 0
        self.raw: list = []

    def _sample(self, key: str, value: float) -> None:
        bucket = self.samples[key]
        if len(bucket) < self.SAMPLE_CAP:
            bucket.append(value)

    def add(self, spans: list, wall_s: float) -> None:
        """Fold one op's spans; ``wall_s`` is the op's wall time measured around it."""
        self.ops += 1
        self.busy_s += wall_s
        if self.ops <= self.RAW_OPS:
            self.raw.extend(spans)
        selfs = _self_times(spans)
        if sum(selfs) > wall_s + 1e-9:
            self.over_wall += 1

        sweep_var: list[str | None] = []
        direct = Counter()  # (parent index, child name) -> count
        for index, (_, name, start, end, parent, tag) in enumerate(spans):
            if parent >= 0:
                direct[parent, name] += 1
            inherited = sweep_var[parent] if parent >= 0 else None
            sweep_var.append(tag[0] if name == "experiments.sweep" else inherited)
            if name == "specfun.hyp2f1_1b":
                self.counts["hyp2f1." + tag] += 1
            if inherited is not None and name in ("specfun.hyp2f1_1b", "analytic.coverage",
                                                  "geometry.ring_of"):
                self.counts[f"{name}@sweep.{inherited}"] += 1

        for index, (_, name, start, end, parent, tag) in enumerate(spans):
            duration = end - start
            if name in ("cli.main", "analytic.coverage"):
                self._sample(name + ".self", selfs[index])
            elif name == "experiments.sweep" and tag[1] > 1:
                self._sample("sweep_per_point." + tag[0], duration / tag[1])
            elif name == "experiments.find_alpha_for_target":
                self._sample("plan." + ("sic" if tag else "plain"), duration)
                self._sample("plan.coverage_calls", direct[index, "analytic.coverage"])
            elif name == "mcsim.estimate" and tag[1] == 1:
                self._sample("estimate.mtrials_per_s", tag[0] / duration / 1e6)
                self._sample("estimate.chunks", direct[index, "mcsim.derive_seed"])

    def to_json(self) -> dict:
        return {"samples": dict(self.samples), "counts": dict(self.counts), "ops": self.ops,
                "busy_s": self.busy_s, "over_wall": self.over_wall}
