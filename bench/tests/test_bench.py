"""Tests of the benchmark: its reference, its checks and its smoke runs.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import archvar as av  # noqa: E402
import pace  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

ALPHAS = (0.01, 0.05, 0.5, 0.95)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ reference

@pytest.mark.parametrize("alpha", ALPHAS)
def test_reference_clayton_d2_closed_forms(alpha):
    # theta = 2, d = 2: U = phi^-1(phi(alpha) B) = (1 + (alpha^-2 - 1) B)^(-1/2)
    mean = 2 * alpha / (1 + alpha)
    second = -2 * math.log(alpha) * alpha ** 2 / (1 - alpha ** 2)
    assert ref.var("clayton", 2.0, 2, alpha, ("uniform",)) == pytest.approx(mean, rel=1e-13)
    assert ref.conditional_sd("clayton", 2.0, 2, alpha, ("uniform",)) == pytest.approx(
        math.sqrt(second - mean ** 2), rel=1e-10)


@pytest.mark.parametrize("th", (0.3, 2.0, 10.0))
def test_reference_tau_closed_forms(th):
    assert ref.kendall_tau("clayton", th) == pytest.approx(th / (th + 2), abs=1e-14)
    assert ref.kendall_tau("gumbel", 1 + th) == pytest.approx(1 - 1 / (1 + th), abs=1e-14)


@pytest.mark.parametrize("th", (-0.9, -0.3, 0.5, 0.95))
def test_reference_tau_amh_closed_form(th):
    want = 1 - 2 * (th + (1 - th) ** 2 * math.log1p(-th)) / (3 * th ** 2)
    assert ref.kendall_tau("amh", th) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("th", (1e-6, 0.5, 5.74, 40.0))
def test_reference_tau_frank_debye(th):
    import mpmath
    with mpmath.workdps(40):      # 1 - debye cancels at small theta
        debye = mpmath.quad(lambda t: t / mpmath.expm1(t), [0, th]) / th
        want = float(1 - 4 / mpmath.mpf(th) * (1 - debye))
    assert ref.kendall_tau("frank", th) == pytest.approx(want, abs=1e-14)


def test_reference_h1_sd_at_independence():
    # AMH at theta = 0 is the independence copula: h1 = (2u - 1)(2v - 1), sd 1/3
    rows = np.random.default_rng(0).random((20000, 2)).tolist()
    assert ref.kendall_h1_sd("amh", 0.0, rows) == pytest.approx(1 / 3, rel=0.02)


@pytest.mark.parametrize("fam,th,d,alpha,margin", [
    ("gumbel", 6.0, 10, 0.01, ("lognormal", 0.0, 0.5)),
    ("joe", 2.4, 3, 0.95, ("normal", 3.0, 1.0)),
    ("amh", -0.7, 2, 0.5, ("uniform",)),
    ("frank", 5.74, 50, 0.05, ("table", [0.1, 0.3, 0.6, 0.9], [0.0, 1.0, 1.5, 4.0])),
])
def test_reference_double_matches_mpmath(fam, th, d, alpha, margin):
    assert ref.var(fam, th, d, alpha, margin) == pytest.approx(
        ref.var(fam, th, d, alpha, margin, precise=True), rel=1e-11)


# --------------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def var_grid():
    return workloads.build(av, "var_grid", seed=1, smoke=True)


def _op(workload, suffix):
    return next(op for op in workload.ops if op.label.endswith(suffix)
                and op.label not in workload.known)


@pytest.mark.parametrize("kind", ("closed", "mixed", "table"))
def test_var_check_rejects_relative_1e6(var_grid, kind):
    op = _op(var_grid, kind)
    comps = np.array(op.run().components)
    assert var_grid.check(op, SimpleNamespace(components=comps)) == []
    wants = [ref.var(op.info["fam"], op.info["th"], op.info["d"], op.info["alpha"], m)
             for m in op.info["descs"]]
    for sign in (1.0, -1.0):
        off = np.array(wants) * (1 + sign * 1e-6)
        assert var_grid.check(op, SimpleNamespace(components=off)) != []


def test_var_check_rejects_unequal_shared_components(var_grid):
    op = _op(var_grid, "closed")
    comps = np.array(op.run().components)
    comps[1] = np.nextafter(comps[1], np.inf)
    assert any("share a margin" in e
               for e in var_grid.check(op, SimpleNamespace(components=comps)))


def test_known_failures_are_listed(var_grid):
    labels = {op.label for op in var_grid.ops}
    assert var_grid.known <= labels
    for op in var_grid.ops:
        if op.label.endswith("known-failure"):
            with pytest.raises((ArithmeticError, RuntimeError)):
                op.run()


@pytest.fixture(scope="module")
def mc_study():
    workload = workloads.build(av, "mc_small_n", seed=1, smoke=True)
    op = workload.ops[0]
    return workload, op, op.run()


def test_mc_check_rejects_mean_six_se_off(mc_study):
    workload, op, out = mc_study
    assert workload.check(op, out) == []
    want = ref.var("clayton", 2.0, 3, 0.05, ("uniform",))
    sd = ref.conditional_sd("clayton", 2.0, 3, 0.05, ("uniform",))
    se = sd / math.sqrt(out.mean_selected_count * out.config.replications)
    for sign in (1.0, -1.0):
        fake = SimpleNamespace(mean=np.full(3, want + sign * 6 * se),
                               theoretical=out.theoretical,
                               mean_selected_count=out.mean_selected_count,
                               failed_replications=0)
        assert workload.check(op, fake) != []


def test_mc_check_rejects_theoretical_and_failed_replications(mc_study):
    workload, op, out = mc_study
    base = dict(mean=out.mean, theoretical=out.theoretical,
                mean_selected_count=out.mean_selected_count, failed_replications=0)
    off = dict(base, theoretical=out.theoretical * (1 + 1e-6))
    assert workload.check(op, SimpleNamespace(**off)) != []
    assert workload.check(op, SimpleNamespace(**dict(base, failed_replications=1))) != []


@pytest.fixture(scope="module")
def tau_op():
    workload = workloads.build(av, "sample_tau", seed=1, smoke=True)
    op = next(op for op in workload.ops if op.info["fam"] == "frank")
    return op, op.run()


def test_tau_checks_pass_and_reject_1e9(tau_op):
    op, (theta, tau_program, tau_hat, data) = tau_op
    fam, tau = op.info["fam"], op.info["tau"]
    check = workloads.check_sample_tau
    assert check(fam, tau, theta, tau_program, tau_hat, data) == []
    assert check(fam, tau, theta, tau_program + 1e-9, tau_hat, data) != []
    assert check(fam, tau, theta, tau_program, tau_hat + 1e-9, data) != []
    # theta moved so that its tau moves by 1e-9 (dtau/dtheta is ~0.06 here)
    dtau = ref.kendall_tau(fam, theta * (1 + 1e-6)) - ref.kendall_tau(fam, theta)
    moved = theta * (1 + 1e-6 * 1e-9 / dtau)
    assert check(fam, tau, moved, tau_program, tau_hat, data) != []


def test_tau_check_rejects_non_uniform_column(tau_op):
    op, (theta, tau_program, tau_hat, data) = tau_op
    bent = data.copy()
    bent[:, 1] = bent[:, 1] ** 1.05
    errors = workloads.check_sample_tau(op.info["fam"], op.info["tau"], theta,
                                        tau_program, tau_hat, bent)
    assert any("KS" in e for e in errors)


# ----------------------------------------------------------------------- pace

def test_pace_scales_by_the_kernel_samples_near_an_interval():
    host = pace.Pace(lambda: time.sleep(0.002), ref_s=0.004)
    host.burst(force=True)
    now = time.perf_counter()
    # a sleep of 2 ms lasts at least 2 ms, so the scale is at most 2
    assert 1.0 < host.scale(now, now) <= 2.0
    with pytest.raises(RuntimeError):
        host.scale(now + 10 * pace.WINDOW_S, now + 10 * pace.WINDOW_S)



# ------------------------------------------------------------------ smoke runs

def _run(workload, trace, cwd=ROOT, seed=2):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(name):
    proc = _run(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    known = len(workloads.build(av, name, 2, smoke=True).known)
    rounds = result["attempted"] // len(workloads.build(av, name, 2, smoke=True).ops)
    assert result["failed"] == known * rounds
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ("var_grid", "mc_small_n", "sample_tau"))
def test_traced_counts_repeat_exactly(name):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    results = []
    for _ in range(2):
        proc = _run(name, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert set(results[0]) == {m["name"] for m in SPEC["per_layer"]}
    assert [results[0][c] for c in counts] == [results[1][c] for c in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("var_grid", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
