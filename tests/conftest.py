import pytest

from ctwin import Dag, Scm, Variable
from ctwin.model import network_from_dict, network_to_dict


def half_adder() -> Scm:
    """2-bit half adder with possibly faulty gates.

    U picks the inputs uniformly (A = U div 2, B = U mod 2); X and Y are
    the gate healths with P(ok) = 0.9 (state 1 = ok); a healthy XOR/AND
    gate computes its function, a faulty one outputs low.
    """
    dag = Dag.of(
        ["U", "X", "Y", "A", "B", "S", "C"],
        {"A": ("U",), "B": ("U",), "S": ("A", "B", "X"), "C": ("A", "B", "Y")},
    )
    variables = {v: Variable(v, 4 if v == "U" else 2, v not in ("U", "X", "Y")) for v in dag.nodes}
    tables = {"U": (0.25, 0.25, 0.25, 0.25), "X": (0.1, 0.9), "Y": (0.1, 0.9)}
    cpts = {
        "A": tuple(u // 2 for u in range(4)),
        "B": tuple(u % 2 for u in range(4)),
        "S": tuple((a ^ b) if x else 0 for a in range(2) for b in range(2) for x in range(2)),
        "C": tuple((a & b) if y else 0 for a in range(2) for b in range(2) for y in range(2)),
    }
    return Scm(dag, variables, tables, cpts)


def assert_round_trips(net: Scm) -> None:
    """net passes every rule of the parser: written out and read back, it
    has the same graph, variables and tables."""
    back = network_from_dict(network_to_dict(net))
    assert back.dag == net.dag
    assert back.variables == net.variables
    assert back.root_tables == net.root_tables
    assert back.internal_cpts == net.internal_cpts


@pytest.fixture
def adder() -> Scm:
    return half_adder()


def random_scm(seed: int, n: int = 6, param: int = 2, kind: str = "rSCM") -> Scm:
    from ctwin.randgen import Rng, gen_rscm, gen_rscm2

    rng = Rng(seed)
    if kind == "rSCM":
        return gen_rscm(n, param, rng)
    return gen_rscm2(n, param, rng)
