"""Reaching definitions and derivation closures over one function.

The shm-protocol checker needs two name-level questions answered:

* **which locals alias shm-arena fields** — ``phi = fields["phi"]``,
  ``halo_flat = halo.reshape(...)`` and ``block = problem.block(d,
  phi)`` all bind a local name to (a view of) a shared array; the
  reaching-definitions scan maps every such binding back to the arena
  field it aliases (:func:`arena_handles`);
* **which locals are derived from worker-ownership roots** — ``rows =
  problem.rows(d)`` makes ``rows`` a worker-partitioned index because
  ``d`` iterates the worker's ``owned`` list; the
  derivation closure (:func:`derived_names`) is the transitive "uses a
  root (or a derived name) on the right-hand side" fixpoint over every
  definition site in the function.

Definitions are collected per CFG node (:class:`ReachingDefs`) with the
classic gen/kill formulation, so flow-sensitive consumers can ask which
specific assignments reach a program point; the derivation closure is
deliberately flow-*insensitive* (a union over all definition sites),
which errs on the side of believing an index is worker-partitioned —
the right polarity for a checker whose findings gate CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.dataflow.cfg import Cfg, CfgNode, node_parts
from repro.analysis.dataflow.solver import solve_forward


def bound_names(target: ast.AST) -> set[str]:
    """Names bound by an assignment target (tuples/lists/stars unpacked)."""
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names


def used_names(expr: ast.AST) -> set[str]:
    """Names read anywhere inside ``expr``."""
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@dataclass(frozen=True)
class Definition:
    """One binding of ``name`` at CFG node ``node_id``."""

    name: str
    node_id: int
    value: ast.AST | None  # RHS expression, None for opaque bindings


def _node_definitions(node: CfgNode) -> list[Definition]:
    defs: list[Definition] = []
    stmt = node.stmt
    if stmt is None:
        return defs
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            # Parallel unpack keeps element-wise RHS mapping so handle
            # bindings like `phi, phi_new = arena["phi"], arena["phi_new"]`
            # stay precise.
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and isinstance(stmt.value, (ast.Tuple, ast.List))
                and len(target.elts) == len(stmt.value.elts)
            ):
                for t_elt, v_elt in zip(target.elts, stmt.value.elts):
                    for name in bound_names(t_elt):
                        defs.append(Definition(name, node.id, v_elt))
            else:
                for name in bound_names(target):
                    defs.append(Definition(name, node.id, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        for name in bound_names(stmt.target):
            defs.append(Definition(name, node.id, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        for name in bound_names(stmt.target):
            # x += rhs uses both the old x and the rhs.
            defs.append(Definition(name, node.id, stmt))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in bound_names(stmt.target):
            defs.append(Definition(name, node.id, stmt.iter))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in bound_names(item.optional_vars):
                    defs.append(Definition(name, node.id, item.context_expr))
    else:
        # Walrus targets inside any header/statement expression.
        for part in node_parts(node):
            for sub in ast.walk(part):
                if isinstance(sub, ast.NamedExpr):
                    for name in bound_names(sub.target):
                        defs.append(Definition(name, node.id, sub.value))
    return defs


class ReachingDefs:
    """Classic reaching-definitions facts over one function CFG."""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        self.definitions: list[Definition] = []
        self._by_node: dict[int, list[Definition]] = {}
        for node in cfg.statement_nodes():
            node_defs = _node_definitions(node)
            if node_defs:
                self._by_node[node.id] = node_defs
                self.definitions.extend(node_defs)
        self._fact_of = {
            d: f"{d.name}@{d.node_id}" for d in self.definitions
        }
        self._of_fact = {fact: d for d, fact in self._fact_of.items()}
        by_name: dict[str, set[str]] = {}
        for d, fact in self._fact_of.items():
            by_name.setdefault(d.name, set()).add(fact)

        def transfer(node: CfgNode) -> tuple[frozenset[str], frozenset[str]]:
            gen: set[str] = set()
            kill: set[str] = set()
            for d in self._by_node.get(node.id, ()):
                gen.add(self._fact_of[d])
                kill |= by_name.get(d.name, set())
            return frozenset(gen), frozenset(kill - gen)

        params = frozenset(
            f"{name}@param" for name in _parameter_names(cfg.func)
        )
        self._in = solve_forward(cfg, transfer, entry_fact=params, join="union")

    def reaching(self, node_id: int) -> dict[str, list[Definition | None]]:
        """Definitions (or ``None`` for the parameter binding) that may
        reach the entry of ``node_id``, grouped by name."""
        out: dict[str, list[Definition | None]] = {}
        for fact in self._in.get(node_id) or ():
            name, _, site = fact.partition("@")
            if site == "param":
                out.setdefault(name, []).append(None)
            else:
                out.setdefault(name, []).append(self._of_fact[fact])
        return out


def _parameter_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        )
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def derived_names(cfg: Cfg, roots: Iterable[str]) -> set[str]:
    """Transitive closure of names derived from ``roots``.

    A name is derived when any of its definition sites reads a root or an
    already-derived name. Flow-insensitive by design: one owned binding
    anywhere makes the name owned everywhere, which biases the overlap
    rule toward *not* flagging — sound enough for a CI gate whose job is
    catching schedules that are wrong on every path.
    """
    derived = set(roots)
    changed = True
    all_defs: list[Definition] = []
    for node in cfg.statement_nodes():
        all_defs.extend(_node_definitions(node))
    while changed:
        changed = False
        for d in all_defs:
            if d.name in derived or d.value is None:
                continue
            if used_names(d.value) & derived:
                derived.add(d.name)
                changed = True
    return derived


#: Local names that conventionally hold the arena/field mapping itself.
_ARENA_BASES = frozenset({"arena", "fields"})


def arena_handles(
    cfg: Cfg, field_names: Iterable[str] | None = None
) -> dict[str, str]:
    """Map local name -> arena field it aliases, for one function.

    Recognised bindings, chained transitively:

    * parameters named like arena fields (worker loops receive the
      views positionally: ``phi``, ``halo``, ``control``, ...);
    * ``x = fields["phi"]`` / ``x = arena["phi"]`` subscripts of an
      arena mapping (or ``.get("phi")`` calls on one);
    * ``y = x.reshape(...)`` / ``y = x[...]`` views of a known handle.
    """
    known = set(field_names or ())
    handles: dict[str, str] = {
        name: name for name in _parameter_names(cfg.func) if name in known
    }
    all_defs: list[Definition] = []
    for node in cfg.statement_nodes():
        all_defs.extend(_node_definitions(node))
    changed = True
    while changed:
        changed = False
        for d in all_defs:
            if d.name in handles or d.value is None:
                continue
            alias = _handle_of(d.value, handles, known)
            if alias is not None:
                handles[d.name] = alias
                changed = True
    return handles


def _handle_of(
    value: ast.AST, handles: Mapping[str, str], known: set[str]
) -> str | None:
    # currents = arena["currents"] if cmfd is not None else None
    if isinstance(value, ast.IfExp):
        return _handle_of(value.body, handles, known) or _handle_of(
            value.orelse, handles, known
        )
    # fields["phi"] / arena["phi"]
    if isinstance(value, ast.Subscript):
        base = value.value
        if isinstance(base, ast.Name):
            key = value.slice
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and base.id in _ARENA_BASES
                and (not known or key.value in known)
            ):
                return str(key.value)
            if base.id in handles:  # view of a handle: x[...]
                return handles[base.id]
    # fields.get("phi")
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        owner = value.func.value
        if (
            value.func.attr == "get"
            and isinstance(owner, ast.Name)
            and owner.id in _ARENA_BASES
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and isinstance(value.args[0].value, str)
        ):
            return str(value.args[0].value)
        # x.reshape(...) and friends: a view keeps the field identity.
        if (
            isinstance(owner, ast.Name)
            and owner.id in handles
            and value.func.attr in ("reshape", "view", "ravel", "transpose")
        ):
            return handles[owner.id]
    if isinstance(value, ast.Call):
        # problem.block(d, phi) and friends: a helper taking exactly one
        # handle argument returns a view of (or into) that handle.
        handle_args = [
            a for a in value.args
            if isinstance(a, ast.Name) and a.id in handles
        ]
        if len(handle_args) == 1:
            return handles[handle_args[0].id]
    return None
