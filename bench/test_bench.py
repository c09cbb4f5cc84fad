"""Self-test of the benchmark at tiny sizes; it gates on no timing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles as o  # noqa: E402
import tracer  # noqa: E402


def _poisson_grid(mu_a, mu_b, size):
    pa = [math.exp(-mu_a) * mu_a ** k / math.factorial(k) for k in range(size)]
    pb = [math.exp(-mu_b) * mu_b ** k / math.factorial(k) for k in range(size)]
    return [[x * y for y in pb] for x in pa]


def test_coherent_oracle_accepts_closed_form_and_rejects_swapped_sign():
    a, b = o.Mode("coherent", 1.0 + 0j), o.Mode("coherent", 0.5 + 0.3j)
    bs = o.Splitter(theta=1.1)
    c, s = bs.c, bs.s
    right = _poisson_grid(abs(c * a.value - s * b.value) ** 2,
                          abs(s * a.value + c * b.value) ** 2, 40)
    o.check_grid(right, a, b, bs)
    wrong = _poisson_grid(abs(c * a.value + s * b.value) ** 2,
                          abs(-s * a.value + c * b.value) ** 2, 40)
    o.check_distribution(wrong)
    with pytest.raises(o.CheckError):
        o.check_coherent_pair(wrong, a, b, bs)


def test_distribution_oracle_rejects_excess_mass_and_negative_entries():
    grid = _poisson_grid(1.0, 1.0, 30)
    o.check_distribution(grid)
    grid[0][0] += 1e-9
    with pytest.raises(o.CheckError, match="exceeds"):
        o.check_distribution(grid)
    grid[0][0] -= 2e-9
    grid[5][5] = -1e-30
    with pytest.raises(o.CheckError, match="negative"):
        o.check_distribution(grid)


def test_fock_pair_probabilities_are_exact():
    # Hong-Ou-Mandel: |1,1> leaves a balanced splitter as (|2,0> - |0,2>)/sqrt2
    hom = [o.fock_pair_probability(1, 1, p, Fraction(1, 2)) for p in range(3)]
    assert hom == [Fraction(1, 2), 0, Fraction(1, 2)]
    for n, m, t in ((3, 2, Fraction(1, 3)), (4, 4, Fraction(3, 4))):
        assert sum(o.fock_pair_probability(n, m, p, t) for p in range(n + m + 1)) == 1


def test_zero_and_family_oracles():
    t = Fraction(1, 2)
    # g(m_a, m_b | 1) = (m_a - m_b) / 2 vanishes on the diagonal
    doc = {"zeros": [{"m_a": k, "m_b": k, "physical": 2 * k >= 1} for k in range(1, 11)]}
    o.check_zeros(doc, 1, t, 10, 10, window=10)
    doc["zeros"][0] = {"m_a": 1, "m_b": 2, "physical": True}
    with pytest.raises(o.CheckError):
        o.check_zeros(doc, 1, t, 10, 10, window=10)
    o.check_family((0, 1, 2), (0, 1, 2), 1, t)
    o.check_family((0, -1, 2), (1, -3, 2), 2, t)
    with pytest.raises(o.CheckError):
        o.check_family((0, -1, 2), (1, -3, 3), 2, t)


def test_herald_and_dicke_closed_forms():
    x = math.tanh(1.5) ** 2
    weights = [(1 - x) * x ** n for n in range(2000)]
    like = [math.comb(n, 2) * 0.87 ** 2 * 0.13 ** (n - 2) for n in range(2000)]
    evidence = math.fsum(w * l for w, l in zip(weights, like))
    doc = {"t": 2, "n_prime": 2, "detection_prob": evidence,
           "posterior": weights[2] * like[2] / evidence,
           "squeezing_db": 10 * math.log10(math.exp(-3.0))}
    o.check_herald(doc, 2, 0.87, 1.5)
    o.check_dicke({"sweep": [{"J": 0, "P_central": 1.0}, {"J": 1, "P_central": 0.0},
                             {"J": 2, "P_central": 0.25}]}, 2)


def test_summarize_splits_self_time():
    trace = {
        "spans": [["cli.cmd_dist", 0.0, 10.0, -1, {}],
                  ["states.parse_state", 0.0, 1.0, 0, {}],
                  ["joint_dist.pure_pure", 1.0, 8.0, 0, {"cells": 100}],
                  ["nodal.cnl_scan", 8.0, 8.5, 0, {}]],
        "hot": [[2, "bs_core.measured_amplitude", 50, 5.0, 5.0],
                [2, "bs_core.bs_coefficient", 20, 4.0, 0.0]],
        "missing": [],
    }
    m, layers = tracer.summarize([trace], ("joint_dist", "bs_core"))
    assert m["trace.inprocess_s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["joint_dist.self_s"] == pytest.approx(2.0)
    assert m["bs_core.cache_hit_ratio"] == pytest.approx(1 - 20 / 50)
    assert m["trace.target_share"] == pytest.approx(0.7)
    assert sum(layers.values()) == pytest.approx(10.0)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload_reports_every_metric(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = _run(BENCH.parent, "--workload", "smoke", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "grids", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
