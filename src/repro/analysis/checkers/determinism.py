"""Determinism checker: solver hot paths must be bitwise replayable.

The cross-engine equivalence suite asserts *bitwise* agreement between the
``inproc`` oracle and the ``mp-async`` engine, and the paper's Eq. 2-7 track
accounting is exact integer arithmetic — both collapse the moment a hot
path consults wall-clock time or an unseeded random stream. Three rules:

* ``wall-clock`` — no ``time.time``/``datetime.now``-style reads in the
  hot packages (solver, tracks, engine, loadbalance). Durations belong in
  :class:`~repro.io.logging_utils.StageTimer`, which uses the monotonic
  ``perf_counter``; wall-clock values differ across ranks and runs.
* ``unseeded-rng`` — no ``np.random.default_rng()`` without a seed and no
  use of the global-state ``np.random.*`` / ``random.*`` distributions in
  the hot packages. Every stochastic model in the repo (load pipeline,
  timeline jitter) threads an explicit seed.
* ``raw-perf-counter`` — inside ``repro.engine`` even ``perf_counter``
  must flow through ``StageTimer``: engine timings are merged across
  worker processes (``_sum``/``_max`` report rows), and ad-hoc counters
  silently fall out of that merge.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.checkers.common import import_aliases, resolve_call
from repro.analysis.core import Finding, SourceFile, register_checker
from repro.analysis.visitor import Ancestors, VisitorChecker

#: Packages whose modules feed the bitwise-reproducible solve path.
HOT_PACKAGES = ("solver", "tracks", "engine", "loadbalance")

#: Wall-clock reads (canonical dotted names after alias expansion).
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Global-state RNG entry points (nondeterministic across processes even
#: when seeded, because the hidden state is shared and order-dependent).
GLOBAL_RNG = frozenset(
    {
        f"numpy.random.{f}"
        for f in (
            "rand", "randn", "randint", "random", "random_sample", "choice",
            "shuffle", "permutation", "normal", "uniform", "exponential", "seed",
        )
    }
    | {f"random.{f}" for f in ("random", "randint", "choice", "shuffle", "uniform", "seed")}
)

#: Monotonic counters that bypass StageTimer's merge bookkeeping.
RAW_COUNTERS = frozenset({"time.perf_counter", "time.perf_counter_ns"})


def _is_unseeded(call: ast.Call) -> bool:
    """``default_rng()`` / ``Generator`` construction with no usable seed."""
    if not call.args and not call.keywords:
        return True
    first = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "seed":
            first = kw.value
    return isinstance(first, ast.Constant) and first.value is None


class DeterminismChecker(VisitorChecker):
    name = "determinism"
    rules = {
        "wall-clock": (
            "wall-clock read in a hot path; bitwise reproducibility requires "
            "monotonic timing through StageTimer"
        ),
        "unseeded-rng": (
            "unseeded or global-state RNG in a hot path; thread an explicit "
            "np.random.default_rng(seed)"
        ),
        "raw-perf-counter": (
            "raw perf_counter in repro.engine; engine timings must flow "
            "through StageTimer so per-worker merges stay consistent"
        ),
    }

    def start_file(self, src: SourceFile) -> bool:
        if not src.in_packages(HOT_PACKAGES):
            return False
        self._in_engine = src.in_packages(("engine",))
        self._aliases = import_aliases(src.tree)
        return True

    def visit_Call(
        self, src: SourceFile, node: ast.Call, ancestors: Ancestors
    ) -> Iterable[Finding]:
        target = resolve_call(node, self._aliases)
        if target is None:
            return
        yield from self._check_call(src, node, target, self._in_engine)

    def _check_call(
        self, src: SourceFile, call: ast.Call, target: str, in_engine: bool
    ) -> Iterator[Finding]:
        if target in WALL_CLOCK:
            yield self.finding(
                src, call, "wall-clock",
                f"call to {target}() in hot path {src.module}; use StageTimer "
                "(perf_counter) for durations — wall clock is not reproducible",
            )
        elif target in GLOBAL_RNG:
            yield self.finding(
                src, call, "unseeded-rng",
                f"global-state RNG {target}() in hot path {src.module}; "
                "construct np.random.default_rng(seed) and pass it explicitly",
            )
        elif target in ("numpy.random.default_rng", "numpy.random.Generator"):
            if _is_unseeded(call):
                yield self.finding(
                    src, call, "unseeded-rng",
                    f"unseeded {target}() in hot path {src.module}; every "
                    "stochastic model must take an explicit seed",
                )
        elif in_engine and target in RAW_COUNTERS:
            yield self.finding(
                src, call, "raw-perf-counter",
                f"direct {target}() in {src.module}; time engine stages with "
                "StageTimer.stage(...) so worker merges see them",
            )


register_checker(DeterminismChecker())
