"""Random network and SCM generation with a portable PRNG.

The generator is xoshiro256** seeded through splitmix64, implemented
here rather than taken from the stdlib so that the exact bit streams
(and hence every generated network and benchmark row) can be reproduced
from any language, not just this Python build.
"""

from __future__ import annotations

from .model import Dag, ModelError, Scm, Variable

_M64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """Stream of 64-bit values; used only to seed xoshiro."""
    x = seed & _M64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


class Rng:
    """xoshiro256**: state s[0..3], output rotl(s[1]*5, 7)*9."""

    def __init__(self, seed: int):
        sm = _splitmix64(seed)
        self.s = [next(sm) for _ in range(4)]

    def next_u64(self) -> int:
        s = self.s
        x = (s[1] * 5) & _M64
        out = (((x << 7) | (x >> 57)) & _M64) * 9 & _M64
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _M64
        return out

    def below(self, n: int) -> int:
        """Uniform in [0, n) by rejection; unbiased."""
        if n <= 0:
            raise ModelError("below() needs a positive bound")
        limit = _M64 - (_M64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def sample(self, pool: list, k: int) -> list:
        """k distinct elements, partial Fisher-Yates on a copy."""
        pool = list(pool)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def gen_rnet(n: int, max_parents: int, rng: Rng) -> Dag:
    """Random DAG over a fixed order: node i draws its parent count
    uniformly from {0, ..., min(max_parents, i)} and its parents
    uniformly from the earlier nodes."""
    if n < 1 or max_parents < 0:
        raise ModelError("need n >= 1 and max_parents >= 0")
    names = _names(n)
    parents = {}
    for i, v in enumerate(names):
        k = rng.below(min(max_parents, i) + 1)
        parents[v] = tuple(sorted(rng.sample(names[:i], k)))
    return Dag(tuple(names), parents)


def to_rscm(dag: Dag) -> Dag:
    """Give every internal its own fresh root parent, making the DAG an
    SCM structure (every internal gets an exclusive noise term)."""
    nodes = list(dag.nodes)
    parents = dict(dag.parents)
    for v in dag.nodes:
        if not dag.parents[v]:
            continue
        r = f"R_{v}"
        if r in parents:
            raise ModelError(f"id collision on generated root {r!r}")
        nodes.append(r)
        parents[r] = ()
        parents[v] = parents[v] + (r,)
    return Dag(tuple(nodes), parents)


def _reaches(src: str, dst: str, step) -> bool:
    """Whether dst can be reached from src through the nodes step(u) lists."""
    seen, todo = {src}, [src]
    while todo:
        for w in step(todo.pop()):
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


def gen_rnet2(n: int, max_degree: int, rng: Rng) -> Dag:
    """Markov-chain DAG generation: start from a directed path and run
    50 * n * max_degree steps; each step picks an ordered node pair and
    either removes the edge (if the skeleton stays connected) or adds it
    (if acyclicity and the degree cap are preserved)."""
    if n < 2 or max_degree < 1:
        raise ModelError("need n >= 2 and max_degree >= 1")
    names = _names(n)
    parents: dict[str, list[str]] = {v: [names[i - 1]] if i else [] for i, v in enumerate(names)}
    children: dict[str, list[str]] = {v: [names[i + 1]] if i + 1 < n else [] for i, v in enumerate(names)}
    degree = {v: len(parents[v]) + len(children[v]) for v in names}
    for _ in range(50 * n * max_degree):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        a, b = names[i], names[j]
        if a in parents[b]:
            # the skeleton stays connected iff a still reaches b without this edge
            if _reaches(a, b, lambda u: [w for w in parents[u] + children[u] if u != a or w != b]):
                parents[b].remove(a)
                children[a].remove(b)
                degree[a] -= 1
                degree[b] -= 1
        else:
            if degree[a] >= max_degree or degree[b] >= max_degree:
                continue
            # a -> b closes a cycle iff b already reaches a
            if not _reaches(b, a, children.__getitem__):
                parents[b].append(a)
                children[a].append(b)
                degree[a] += 1
                degree[b] += 1
    return Dag(tuple(names), {v: tuple(sorted(parents[v])) for v in names})


def parameterize(dag: Dag, rng: Rng, cardinality: int = 2) -> Scm:
    """Random root distributions and random deterministic CPTs."""
    if cardinality < 2:
        raise ModelError("cardinality must be >= 2")
    variables, tables, cpts = {}, {}, {}
    for v in dag.nodes:
        ps = dag.parents[v]
        if not ps:
            raw = [rng.uniform() + 1e-6 for _ in range(cardinality)]
            z = sum(raw)
            tables[v] = tuple(x / z for x in raw)
            variables[v] = Variable(v, cardinality, False)
        else:
            rows = 1
            for p in ps:
                rows *= cardinality
            cpts[v] = tuple(rng.below(cardinality) for _ in range(rows))
            variables[v] = Variable(v, cardinality, True)
    return Scm(dag, variables, tables, cpts)


def gen_rscm(n: int, max_parents: int, rng: Rng, cardinality: int = 2) -> Scm:
    return parameterize(to_rscm(gen_rnet(n, max_parents, rng)), rng, cardinality)


def gen_rscm2(n: int, max_degree: int, rng: Rng, cardinality: int = 2) -> Scm:
    return parameterize(to_rscm(gen_rnet2(n, max_degree, rng)), rng, cardinality)


# Base DAG generators by name, each called as (n, param, rng); param is
# the max parent count (rNET, rSCM) or the max degree (rNET2, rSCM2).
GENERATORS = {
    "rNET": gen_rnet,
    "rNET2": gen_rnet2,
    "rSCM": lambda n, param, rng: to_rscm(gen_rnet(n, param, rng)),
    "rSCM2": lambda n, param, rng: to_rscm(gen_rnet2(n, param, rng)),
}
