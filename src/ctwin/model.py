"""Core data model: DAGs, variables, SCMs, factors, evidence, and file I/O.

All structures are plain immutable-after-construction containers. State
indices are 0-based; instantiation enumeration is lexicographic with the
last scope variable varying fastest (C order).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import isfinite, prod

import numpy as np

ID_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*$")


class ModelError(Exception):
    """Invalid model file or violated model invariant."""


class InvariantError(Exception):
    """A violated internal contract: a fault of the program, not of its input."""


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over variable ids."""

    nodes: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ModelError("duplicate node ids")
        for v, ps in self.parents.items():
            if v not in known:
                raise ModelError(f"parents listed for unknown node {v!r}")
            if len(set(ps)) != len(ps):
                raise ModelError(f"duplicate parent in list of {v!r}")
            if v in ps:
                raise ModelError(f"self-loop at {v!r}")
            for p in ps:
                if p not in known:
                    raise ModelError(f"unknown parent {p!r} of {v!r}")
        if self.topological_order() is None:
            raise ModelError("graph contains a directed cycle")

    @staticmethod
    def of(nodes, parents) -> "Dag":
        return Dag(tuple(nodes), {v: tuple(parents.get(v, ())) for v in nodes})

    def children_of(self, v: str) -> tuple[str, ...]:
        return tuple(c for c in self.nodes if v in self.parents[c])

    def roots(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if not self.parents[v])

    def internals(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if self.parents[v])

    def edges(self) -> list[tuple[str, str]]:
        return [(p, v) for v in self.nodes for p in self.parents[v]]

    def topological_order(self) -> list[str] | None:
        """Kahn's algorithm; None if the graph is cyclic."""
        return _topological_order(self.nodes, self.parents)


def _topological_order(nodes, parents: dict[str, tuple[str, ...]]) -> list[str] | None:
    """Kahn's algorithm over known-good node and parent lists; None if
    they contain a directed cycle."""
    indeg = {v: len(parents[v]) for v in nodes}
    children: dict[str, list[str]] = {v: [] for v in nodes}
    for v in nodes:
        for p in parents[v]:
            children[p].append(v)
    ready = [v for v in nodes if indeg[v] == 0]
    out = []
    while ready:
        v = ready.pop()
        out.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return out if len(out) == len(nodes) else None


@dataclass(frozen=True)
class Variable:
    id: str
    cardinality: int
    functional: bool


@dataclass(frozen=True)
class Evidence:
    assignments: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))

    def __bool__(self):
        return bool(self.assignments)

    def items(self):
        return self.assignments.items()


@dataclass(frozen=True)
class Scm:
    """Fully specified structural causal model.

    Roots carry distributions; internals carry deterministic CPTs stored
    as one child-state index per parent instantiation (lexicographic in
    the listed parent order, last parent fastest).

    An Scm is immutable after construction: its dicts must not be changed.
    Counterfactual queries rely on this, since they compile each world
    layout's network, orders and jointrees once into `_compiled` (keyed by
    world count and shared roots) and reuse them for later queries.
    """

    dag: Dag
    variables: dict[str, Variable]
    root_tables: dict[str, tuple[float, ...]]
    internal_cpts: dict[str, tuple[int, ...]]
    state_names: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def card(self, v: str) -> int:
        return self.variables[v].cardinality

    def is_root(self, v: str) -> bool:
        return not self.dag.parents[v]

    def cpt_index(self, v: str, parent_states: dict[str, int]) -> int:
        idx = 0
        for p in self.dag.parents[v]:
            idx = idx * self.card(p) + parent_states[p]
        return idx

    def child_state(self, v: str, parent_states: dict[str, int]) -> int:
        return self.internal_cpts[v][self.cpt_index(v, parent_states)]


@dataclass(frozen=True)
class Factor:
    """Discrete potential over an ordered variable scope.

    values is an ndarray of shape (card(scope[0]), ..., card(scope[-1])),
    i.e. its C-order ravel is the flat table with the last scope variable
    varying fastest.
    """

    scope: tuple[str, ...]
    values: np.ndarray

    @staticmethod
    def of(scope, cards: dict[str, int], flat) -> "Factor":
        scope = tuple(scope)
        shape = tuple(cards[v] for v in scope)
        arr = np.asarray(flat, dtype=float).reshape(shape)
        if (arr < 0).any():
            raise ModelError("negative factor entry")
        return Factor(scope, arr)

    @staticmethod
    def unit() -> "Factor":
        return Factor((), np.asarray(1.0))


def scm_factors(scm: Scm) -> list[Factor]:
    """One factor per variable: root tables and 0/1 CPT indicators."""
    cards = {v: scm.card(v) for v in scm.dag.nodes}
    out = []
    for v in scm.dag.nodes:
        ps = scm.dag.parents[v]
        if not ps:
            out.append(Factor.of((v,), cards, scm.root_tables[v]))
        else:
            scope = ps + (v,)
            shape = tuple(cards[x] for x in scope)
            arr = np.zeros(shape)
            flat = arr.reshape(-1, cards[v])
            for row, s in enumerate(scm.internal_cpts[v]):
                flat[row, s] = 1.0
            out.append(Factor(scope, arr))
    return out


def _parse_variable(entry, pos: int):
    if not isinstance(entry, dict):
        raise ModelError(f"variables[{pos}]: expected an object")
    for key in ("id", "states"):
        if key not in entry:
            raise ModelError(f"variables[{pos}]: missing field {key!r}")
    vid = entry["id"]
    if not isinstance(vid, str) or not ID_PATTERN.match(vid):
        raise ModelError(f"variables[{pos}]: bad id {vid!r}")
    states = entry["states"]
    if not isinstance(states, list) or not states:
        raise ModelError(f"{vid}: 'states' must be a non-empty array")
    parents = entry.get("parents", [])
    if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
        raise ModelError(f"{vid}: 'parents' must be an array of ids")
    if "functional" in entry and not isinstance(entry["functional"], bool):
        raise ModelError(f"{vid}: 'functional' must be true or false, got {entry['functional']!r}")
    has_dist = "dist" in entry
    has_cpt = "cpt" in entry
    if has_dist == has_cpt:
        raise ModelError(f"{vid}: exactly one of 'dist' or 'cpt' required")
    return vid, states, parents, entry


def load_network(path) -> Scm:
    """Load an SCM from a network JSON file; raises ModelError with the
    offending variable id on any invariant violation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ModelError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}")
    return network_from_dict(doc)


def network_from_dict(doc) -> Scm:
    if not isinstance(doc, dict) or not isinstance(doc.get("variables"), list):
        raise ModelError("top-level object with 'variables' array required")
    nodes, parents, cards, state_names = [], {}, {}, {}
    entries = {}
    for pos, entry in enumerate(doc["variables"]):
        vid, states, ps, entry = _parse_variable(entry, pos)
        if vid in entries:
            raise ModelError(f"{vid}: duplicate variable")
        nodes.append(vid)
        parents[vid] = tuple(ps)
        cards[vid] = len(states)
        state_names[vid] = tuple(str(s) for s in states)
        entries[vid] = entry
    dag = Dag(tuple(nodes), parents)

    variables, root_tables, internal_cpts = {}, {}, {}
    for vid in nodes:
        entry = entries[vid]
        is_root = not parents[vid]
        if is_root:
            if "dist" not in entry:
                raise ModelError(f"{vid}: root variable needs 'dist'")
            dist = entry["dist"]
            if not isinstance(dist, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in dist):
                raise ModelError(f"{vid}: dist must be an array of numbers, got {dist!r}")
            table = tuple(float(x) for x in dist)
            if len(table) != cards[vid]:
                raise ModelError(f"{vid}: dist length != number of states")
            if not all(map(isfinite, table)):
                raise ModelError(f"{vid}: dist has a non-finite entry, got {dist!r}")
            if any(x < 0 for x in table):
                raise ModelError(f"{vid}: negative probability")
            if abs(sum(table) - 1.0) > 1e-12:
                raise ModelError(f"{vid}: dist sums to {sum(table)}, not 1")
            root_tables[vid] = table
            functional = entry.get("functional", False)
        else:
            if "cpt" not in entry:
                raise ModelError(f"{vid}: internal variable needs 'cpt'")
            cpt = entry["cpt"]
            if not isinstance(cpt, list):
                raise ModelError(f"{vid}: cpt must be an array of state indices, got {cpt!r}")
            want = prod(cards[p] for p in parents[vid])
            if len(cpt) != want:
                raise ModelError(f"{vid}: cpt length {len(cpt)} != {want}")
            for s in cpt:
                if isinstance(s, bool) or not isinstance(s, int) or not (0 <= s < cards[vid]):
                    raise ModelError(
                        f"{vid}: cpt entry {s!r} is not a valid state index "
                        "(non-deterministic or malformed CPT)"
                    )
            internal_cpts[vid] = tuple(cpt)
            functional = entry.get("functional", True)
            if not functional:
                raise ModelError(f"{vid}: internal SCM variable must be functional")
        variables[vid] = Variable(vid, cards[vid], functional)
    return Scm(dag, variables, root_tables, internal_cpts, state_names)


def network_to_dict(scm: Scm, world_map=None) -> dict:
    var_entries = []
    for v in scm.dag.nodes:
        names = scm.state_names.get(v) or tuple(
            f"s{i}" for i in range(scm.card(v))
        )
        entry = {"id": v, "states": list(names), "parents": list(scm.dag.parents[v])}
        if scm.is_root(v):
            entry["dist"] = list(scm.root_tables[v])
            if scm.variables[v].functional:
                entry["functional"] = True
        else:
            entry["cpt"] = list(scm.internal_cpts[v])
        var_entries.append(entry)
    doc = {"variables": var_entries}
    if world_map is not None:
        doc["world_map"] = world_map.to_dict()
    return doc


def save_network(scm: Scm, path, world_map=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(scm, world_map), fh, indent=1, sort_keys=False)
        fh.write("\n")
