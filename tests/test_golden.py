"""Golden CLI outputs for the thinning path, captured at fixed seeds.

Each file under tests/golden/ holds the exact bytes a command printed
before the thinning rewrite; refactors must keep them byte-identical.
"""

from pathlib import Path

import pytest

from ctwin.cli import main

GOLDEN = Path(__file__).parent / "golden"
NETS = ("rscm_n20_p3_seed1", "rnet_n20_p3_seed1")


@pytest.mark.parametrize("name", NETS)
def test_gen_matches_golden_network(tmp_path, name):
    generator = {"rscm": "rSCM", "rnet": "rNET"}[name.split("_")[0]]
    out = tmp_path / "net.json"
    assert main(["gen", "--generator", generator, "--n", "20", "--param", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", NETS)
def test_thin_twin_matches_golden(tmp_path, name):
    out = tmp_path / "thin.json"
    assert main(["thin", "--net", str(GOLDEN / f"{name}.json"), "--twin", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"thin_twin_{name}.json").read_bytes()


def test_bench_matches_golden(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--generator", "rSCM", "--n", "20", "--param", "3",
                 "--reps", "3", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "bench_rscm_n20_p3_reps3_seed0.csv").read_bytes()
