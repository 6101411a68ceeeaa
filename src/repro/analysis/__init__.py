"""Repo-specific static analysis for the ANT-MOC reproduction.

The paper's claim structure — bitwise-reproducible multi-GPU sweeps driven
by deterministic track counts (Eqs. 2-7) — rests on invariants that no
amount of physics testing enforces by itself: solver hot paths must be
deterministic, failures must never be swallowed silently, registry keys
must fail fast, and float equality must be confined to the designated
bitwise-equivalence oracles. ``repro.analysis`` turns each invariant into
an AST checker that runs over the tree in CI:

    python -m repro.analysis src

Checkers are pluggable (:func:`register_checker`) and individually
suppressible per line (``# repro: ignore[rule-id]``) or per file
(``# repro: ignore-file[rule-id]`` near the top of the module). The
companion *dynamic* tool — the shm race sanitizer — lives in
:mod:`repro.engine.sanitize` and is selected with
``--engine=mp-async-sanitize``.
"""

from __future__ import annotations

from repro.analysis.core import (
    Checker,
    Finding,
    ProjectChecker,
    SourceFile,
    all_rules,
    analyze_files,
    analyze_paths,
    analyze_source,
    analyze_tree,
    find_root,
    iter_python_files,
    load_files,
    register_checker,
    registered_checkers,
    suppression_warnings,
)
from repro.analysis.visitor import VisitorChecker, run_visitors

# Importing the package registers the built-in checkers.
from repro.analysis import checkers as _checkers  # noqa: E402,F401  (registration side effect)

__all__ = [
    "Checker",
    "Finding",
    "ProjectChecker",
    "SourceFile",
    "VisitorChecker",
    "all_rules",
    "analyze_files",
    "analyze_paths",
    "analyze_source",
    "analyze_tree",
    "find_root",
    "iter_python_files",
    "load_files",
    "register_checker",
    "registered_checkers",
    "run_visitors",
    "suppression_warnings",
]
