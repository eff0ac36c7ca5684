"""Graph-level constructions: moral graphs, twin networks, N-world
networks, generalized N-world networks, and intervention mutilation.

Naming scheme for duplicates: the twin duplicate of X is "X'"; in an
N-world network world 1 keeps the base id and world j >= 2 uses "X__j"
(the id grammar has no caret, so a superscript-style suffix is spelled
with a double underscore).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Dag, Evidence, ModelError, Scm, Variable


def twin_name(v: str) -> str:
    return v + "'"


def world_name(v: str, j: int) -> str:
    return v if j == 1 else f"{v}__{j}"


@dataclass(frozen=True)
class MoralGraph:
    nodes: tuple[str, ...]
    adjacency: dict[str, frozenset[str]]


def moral_graph(dag: Dag) -> MoralGraph:
    """Marry common parents, drop edge directions."""
    adj: dict[str, set[str]] = {v: set() for v in dag.nodes}
    for v in dag.nodes:
        ps = dag.parents[v]
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])
    return MoralGraph(dag.nodes, {v: frozenset(s) for v, s in adj.items()})


@dataclass(frozen=True)
class WorldMap:
    """Mapping from (base id, world index) to network ids.

    Shared variables map to themselves in every world.
    """

    world_count: int
    shared: frozenset[str]
    duplicate_of: dict[tuple[str, int], str]

    def lookup(self, base_id: str, world: int) -> str:
        if not (1 <= world <= self.world_count):
            raise ModelError(f"world index {world} out of range")
        if base_id in self.shared:
            return base_id
        key = (base_id, world)
        if key not in self.duplicate_of:
            raise ModelError(f"unknown base variable {base_id!r}")
        return self.duplicate_of[key]

    def to_dict(self) -> dict:
        return {
            "worlds": self.world_count,
            "shared": sorted(self.shared),
            "duplicates": [
                {"base": b, "world": w, "id": nid}
                for (b, w), nid in sorted(self.duplicate_of.items())
            ],
        }


def _twin_copy(v: str, j: int) -> str:
    return v if j == 1 else twin_name(v)


def _world_structure(dag: Dag, duplicated, n_worlds: int, name, cross_edges=()):
    """The one construction behind every world network. Each variable in
    `duplicated` gets the copy name(v, j) in each world j = 1..n_worlds, its
    copies next to each other in base node order; every other variable
    appears once under its own id and is shared by all worlds. A copy's
    parents are its parents' copies in the same world, and a cross edge
    (v, i, j) adds v's world-i copy as a parent of its world-j copy.

    Returns the nodes as (base id, world, id) triples and their parents."""

    def copy(v, j):
        return name(v, j) if v in duplicated else v

    nodes, parents = [], {}
    for v in dag.nodes:
        for j in range(1, n_worlds + 1) if v in duplicated else (1,):
            nid = copy(v, j)
            nodes.append((v, j, nid))
            parents[nid] = tuple(copy(p, j) for p in dag.parents[v])
    for v, i, j in cross_edges:
        if v not in duplicated:
            raise ModelError(f"cross edge on non-duplicated variable {v!r}")
        if not (1 <= i < j <= n_worlds):
            raise ModelError(f"cross edge worlds must satisfy i < j: {(i, j)}")
        parents[copy(v, j)] += (copy(v, i),)
    return nodes, parents


def _twin_structure(dag: Dag):
    """Twin nodes: the whole base network, then the X' copies of its
    internals in base order."""
    nodes, parents = _world_structure(dag, set(dag.internals()), 2, _twin_copy)
    nodes.sort(key=lambda t: t[1])  # stable: world 1, then world 2
    return nodes, parents


def _world_network(scm: Scm, nodes, parents, n_worlds: int, shared: frozenset[str]) -> tuple[Scm, WorldMap]:
    """The network over a world structure: each copy takes the variable,
    table and state names of its base variable."""
    variables, tables, cpts, state_names = {}, {}, {}, {}
    dup = {}
    for v, j, nid in nodes:
        var = scm.variables[v]
        variables[nid] = var if nid == v else Variable(nid, var.cardinality, var.functional)
        if v in scm.root_tables:
            tables[nid] = scm.root_tables[v]
        else:
            cpts[nid] = scm.internal_cpts[v]
        if v in scm.state_names:
            state_names[nid] = scm.state_names[v]
        for w in range(1, n_worlds + 1) if v in shared else (j,):
            dup[(v, w)] = nid
    dag = Dag(tuple(nid for _, _, nid in nodes), parents)
    return Scm(dag, variables, tables, cpts, state_names), WorldMap(n_worlds, shared, dup)


def twin_dag(base: Dag) -> Dag:
    """Structure of the twin network of `base`."""
    nodes, parents = _twin_structure(base)
    return Dag(tuple(nid for _, _, nid in nodes), parents)


def twin_network(scm: Scm) -> tuple[Scm, WorldMap]:
    """Duplicate every internal variable; roots are shared (Def 1 style)."""
    return _world_network(scm, *_twin_structure(scm.dag), 2, frozenset(scm.dag.roots()))


def n_world_network(scm: Scm, shared_roots, n_worlds: int) -> tuple[Scm, WorldMap]:
    """Share the roots in `shared_roots` across worlds and duplicate every
    other variable N times (Def 3 style)."""
    shared = frozenset(shared_roots)
    bad = shared - set(scm.dag.roots())
    if bad:
        raise ModelError(f"shared set contains non-root ids: {sorted(bad)}")
    if n_worlds < 1:
        raise ModelError("world count must be >= 1")
    nodes, parents = _world_structure(scm.dag, set(scm.dag.nodes) - shared, n_worlds, world_name)
    return _world_network(scm, nodes, parents, n_worlds, shared)


def generalized_n_world(dag: Dag, duplicated, n_worlds: int, cross_edges=()) -> Dag:
    """Duplicate only the chosen nodes; cross edges connect duplicates of
    the same variable from an earlier world to a later one (Appendix-D
    style). Returns a structure only; no parameters are defined for the
    cross edges."""
    dup = set(duplicated)
    unknown = dup - set(dag.nodes)
    if unknown:
        raise ModelError(f"unknown duplicated ids: {sorted(unknown)}")
    nodes, parents = _world_structure(dag, dup, n_worlds, world_name, cross_edges)
    return Dag(tuple(nid for _, _, nid in nodes), parents)


def _point_masses(scm: Scm, interventions: Evidence) -> dict[str, tuple[float, ...]]:
    """The table that fixes each intervened variable in its state."""
    out = {}
    for v, state in interventions.items():
        if v not in scm.variables:
            raise ModelError(f"unknown intervened variable {v!r}")
        card = scm.card(v)
        if not (0 <= state < card):
            raise ModelError(f"intervened state {state} out of range for {v!r}")
        out[v] = tuple(1.0 if s == state else 0.0 for s in range(card))
    return out


def mutilate(scm: Scm, interventions: Evidence) -> Scm:
    """Cut incoming edges of intervened variables and fix their states."""
    dag = scm.dag
    parents = dict(dag.parents)
    variables = dict(scm.variables)
    tables = dict(scm.root_tables)
    cpts = dict(scm.internal_cpts)
    for v, point in _point_masses(scm, interventions).items():
        parents[v] = ()
        tables[v] = point
        cpts.pop(v, None)
        variables[v] = Variable(v, len(point), False)
    return Scm(Dag(dag.nodes, parents), variables, tables, cpts, dict(scm.state_names))
