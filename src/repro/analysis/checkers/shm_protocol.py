"""Shm-protocol checker: the engine's shared-memory discipline, proved
statically on every control-flow path.

The dynamic sanitizer (``mp-async-sanitize``) observes the epoch/seqlock
protocol on the schedules that happen to execute; this checker is its
static twin, running the same ordering rules over the statement-level
CFGs of :mod:`repro.engine.async_mp`, :mod:`~repro.engine.shm` and
:mod:`~repro.engine.sanitize`. Three rules:

* ``shm-bump-before-payload`` — a seqlock publish (``edge_seq[e] = t+1``,
  ``grant[_EPOCH] = ...``) must be preceded by its payload write (the halo
  pack, the other grant slots) on **every** path since the last publish; a
  *must* analysis over the CFG proves it. This is the induction step of
  DESIGN.md's seqlock safety argument, checked before the code ever runs.
* ``shm-overlapping-write`` — inside a worker loop (any function taking a
  ``wid`` parameter), every write to a worker-shared arena field must be
  partitioned by the worker's ownership: the statically-derivable target
  expression must involve a name derived from ``wid``/``owned`` (domain
  and edge loop variables, their row ranges, block views).
  Two workers' slices then cannot overlap within an epoch.
* ``shm-untracked-parent-write`` — the untracked arena cells (``factors``,
  ``grant``) are parent-owned single-writer words published
  in parent-synchronised phases; a worker-side write to any of them is a
  protocol violation.

What stays dynamic: actual index *values* (the checker reasons about
which names flow into a slice, not arithmetic), cross-process timing, and
torn reads — those remain the sanitizer's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.analysis.core import Checker, Finding, SourceFile, register_checker
from repro.analysis.dataflow import (
    Cfg,
    arena_handles,
    build_cfg,
    derived_names,
    iter_functions,
    node_parts,
    solve_forward,
)
from repro.analysis.dataflow.cfg import CfgNode

#: Modules the protocol rules cover.
SCOPE_MODULES = frozenset(
    {
        "repro.engine.async_mp",
        "repro.engine.shm",
        "repro.engine.sanitize",
    }
)

#: Every shm-arena field the engines allocate.
ARENA_FIELDS = frozenset(
    {
        "phi", "phi_new", "halo", "currents", "factors",
        "fission", "prod", "edge_seq", "worker_seq", "fission_seq", "grant",
    }
)

#: Parent-owned single-writer cells: workers read, never write.
PARENT_OWNED = frozenset({"factors", "grant"})

#: Ownership roots a worker's partitioned indices derive from.
OWNERSHIP_ROOTS = ("wid", "owned")

#: Seqlock publish pairs: bump field -> payload fact it must follow.
_EDGE_BUMP = "edge_seq"
_EDGE_PAYLOAD = "halo"
_GRANT = "grant"


@dataclass(frozen=True)
class _Write:
    """One statically-detected arena write within a statement."""

    field: str
    node: ast.AST  # narrowest AST carrying the location
    names: frozenset[str]  # Load names in the partitioning expression
    epoch_slot: bool = False  # grant write indexed by _EPOCH


def _load_names(expr: ast.AST) -> frozenset[str]:
    return frozenset(
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def _mentions_epoch(expr: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "_EPOCH" for n in ast.walk(expr)
    )


class _FieldMap:
    """Local-name -> arena-field resolution for one function.

    Falls back to the field name itself for closure-bound names (the
    nested ``issue()`` publisher sees ``grant`` from the enclosing scope),
    which is safe in the scope modules where those names are reserved for
    the arena views.
    """

    def __init__(self, handles: Mapping[str, str]) -> None:
        self._handles = dict(handles)

    def field_of(self, name: str) -> str | None:
        mapped = self._handles.get(name)
        if mapped is not None:
            return mapped
        return name if name in ARENA_FIELDS else None

    def fields_in(self, expr: ast.AST) -> set[str]:
        out: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                field = self.field_of(sub.id)
                if field is not None:
                    out.add(field)
        return out


def _target_writes(target: ast.expr, fmap: _FieldMap) -> Iterator[_Write]:
    """Writes performed by one assignment target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_writes(elt, fmap)
        return
    if isinstance(target, ast.Subscript):
        names = _load_names(target)
        for field in fmap.fields_in(target):
            yield _Write(
                field=field,
                node=target,
                names=names,
                epoch_slot=(field == _GRANT and _mentions_epoch(target.slice)),
            )


def _call_writes(call: ast.Call, fmap: _FieldMap) -> Iterator[_Write]:
    """Writes performed by one call: ``fill`` and ``out=``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.attr == "fill"
    ):
        field = fmap.field_of(func.value.id)
        if field is not None:
            yield _Write(field=field, node=call, names=frozenset())
            return
    for kw in call.keywords:
        if kw.arg == "out" and isinstance(kw.value, ast.Name):
            field = fmap.field_of(kw.value.id)
            if field is not None:
                yield _Write(
                    field=field,
                    node=call,
                    names=frozenset({kw.value.id}),
                )


def _node_writes(node: CfgNode, fmap: _FieldMap) -> list[_Write]:
    """Arena writes performed by one CFG node."""
    writes: list[_Write] = []
    stmt = node.stmt
    if stmt is None:
        return writes
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            writes.extend(_target_writes(target, fmap))
    elif isinstance(stmt, ast.AnnAssign):
        writes.extend(_target_writes(stmt.target, fmap))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            field = fmap.field_of(stmt.target.id)
            if field is not None:
                writes.append(
                    _Write(
                        field=field,
                        node=stmt,
                        names=frozenset({stmt.target.id}),
                    )
                )
        else:
            writes.extend(_target_writes(stmt.target, fmap))
    for part in node_parts(node):
        for sub in ast.walk(part):
            if isinstance(sub, ast.Call):
                writes.extend(_call_writes(sub, fmap))
    return writes


class ShmProtocolChecker(Checker):
    name = "shm-protocol"
    rules = {
        "shm-bump-before-payload": (
            "seqlock publish reachable without its payload write on some "
            "path; readers of the bumped sequence would observe stale or "
            "torn payload data"
        ),
        "shm-overlapping-write": (
            "worker-side write to a shared arena field whose target "
            "expression derives from no ownership root (wid/owned); two "
            "workers' writes could overlap within an epoch"
        ),
        "shm-untracked-parent-write": (
            "worker-side write to a parent-owned arena cell (factors/"
            "grant); untracked cells are single-writer and only the "
            "parent publishes them"
        ),
    }

    def check(self, src: SourceFile) -> Iterable[Finding]:
        if src.module not in SCOPE_MODULES:
            return
        for func in iter_functions(src.tree):
            yield from self._check_function(src, func)

    def _check_function(
        self, src: SourceFile, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        cfg = build_cfg(func)
        fmap = _FieldMap(arena_handles(cfg, ARENA_FIELDS))
        per_node: dict[int, list[_Write]] = {
            node.id: _node_writes(node, fmap) for node in cfg.statement_nodes()
        }
        yield from self._check_seqlock(src, cfg, per_node)
        params = {
            a.arg for a in (*func.args.posonlyargs, *func.args.args)
        }
        if "wid" in params:
            owned = derived_names(cfg, OWNERSHIP_ROOTS)
            yield from self._check_worker_writes(src, per_node, owned)

    def _check_seqlock(
        self,
        src: SourceFile,
        cfg: Cfg,
        per_node: Mapping[int, list[_Write]],
    ) -> Iterator[Finding]:
        """Must-analysis: payload written on every path before the bump."""
        if not any(
            a.field == _EDGE_BUMP or a.field == _GRANT
            for writes in per_node.values()
            for a in writes
        ):
            return

        def transfer(node: CfgNode) -> tuple[frozenset[str], frozenset[str]]:
            gen: set[str] = set()
            kill: set[str] = set()
            for access in per_node.get(node.id, []):
                if access.field == _EDGE_PAYLOAD:
                    gen.add(_EDGE_PAYLOAD)
                elif access.field == _EDGE_BUMP:
                    kill.add(_EDGE_PAYLOAD)
                elif access.field == _GRANT:
                    if access.epoch_slot:
                        kill.add(_GRANT)
                    else:
                        gen.add(_GRANT)
            return frozenset(gen), frozenset(kill - gen)

        facts = solve_forward(cfg, transfer, join="intersection")
        for node in cfg.statement_nodes():
            incoming = facts.get(node.id)
            if incoming is None:  # unreachable: cannot violate ordering
                continue
            for access in per_node.get(node.id, []):
                if access.field == _EDGE_BUMP and _EDGE_PAYLOAD not in incoming:
                    yield self.finding(
                        src, access.node, "shm-bump-before-payload",
                        "edge_seq publish not preceded by a halo payload "
                        "write on every path; readers spinning on this "
                        "sequence would unpack stale boundary flux",
                    )
                elif (
                    access.field == _GRANT
                    and access.epoch_slot
                    and _GRANT not in incoming
                ):
                    yield self.finding(
                        src, access.node, "shm-bump-before-payload",
                        "grant epoch publish not preceded by the other "
                        "grant slots on every path; workers gated on the "
                        "epoch would read stale keff/pnorm/mode",
                    )

    def _check_worker_writes(
        self,
        src: SourceFile,
        per_node: Mapping[int, list[_Write]],
        owned: set[str],
    ) -> Iterator[Finding]:
        for writes in per_node.values():
            for access in writes:
                if access.field in PARENT_OWNED:
                    yield self.finding(
                        src, access.node, "shm-untracked-parent-write",
                        f"worker writes parent-owned arena cell "
                        f"'{access.field}'; untracked cells are published "
                        "only by the parent in synchronised phases",
                    )
                elif not (access.names & owned):
                    yield self.finding(
                        src, access.node, "shm-overlapping-write",
                        f"worker write to shared field '{access.field}' "
                        "with no ownership-derived index (nothing in the "
                        "target derives from wid/owned); slices of two "
                        "workers could overlap within an epoch",
                    )


register_checker(ShmProtocolChecker())
