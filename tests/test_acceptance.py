"""Acceptance gate: the eight release criteria, one test per criterion.

Each test prints exactly one `criterion N: PASS/FAIL (...)` line (run pytest
with -s to see the lines as they happen) and then asserts, so a red run shows
which criterion failed and by how much. Criterion 2 trains ten full models
and takes a few minutes; everything else finishes in seconds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from eprbm import bell
from eprbm.cli import main
from eprbm.epr import DetectorAngles, empirical_correlations, generate_dataset
from eprbm.exact import (
    enumerate_distribution,
    locality_check,
    measurement_independence_check,
)
from eprbm.rbm import RbmModel, advance_chains
from eprbm.trainer import (
    TrainerConfig,
    average_log_likelihood,
    exact_gradient,
    init_chains,
    load_reference_model,
    model_expectation_exact,
    model_expectation_pcd,
    train,
)

from helpers import random_model

REFERENCE_CORRELATIONS = (-0.711, -0.699, -0.713, 0.704)
REFERENCE_S = 2.827
# oracle-run value of the reference model's max TV is 0.620024075451; the
# frozen acceptance threshold sits just below it
FROZEN_MI_THRESHOLD = 0.619


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def test_criterion_1_reference_model_regression():
    started = time.perf_counter()
    model = load_reference_model()
    report = bell.model_correlations_exact(model)
    elapsed = time.perf_counter() - started

    c_err = max(
        abs(c - ref) for c, ref in zip(report.correlations(), REFERENCE_CORRELATIONS)
    )
    s_err = abs(report.s - REFERENCE_S)
    ok = c_err <= 0.02 and s_err <= 0.04 and elapsed < 1.0
    line = _report(
        1,
        ok,
        f"max C error {c_err:.4f} <= 0.02, S error {s_err:.4f} <= 0.04, "
        f"{elapsed:.2f}s < 1s",
    )
    assert ok, line


@pytest.mark.slow
def test_criterion_2_end_to_end_training():
    started = time.perf_counter()
    passes = 0
    details = []
    for seed in range(10):
        dataset = generate_dataset(DetectorAngles(), 100000, seed=seed)
        empirical = empirical_correlations(dataset)
        model, _ = train(dataset, TrainerConfig(seed=seed))
        learned = bell.model_correlations_exact(model)
        c_err = max(
            abs(a - b)
            for a, b in zip(learned.correlations(), empirical.correlations())
        )
        seed_ok = c_err <= 0.03 and 2.7 <= learned.s <= 2.9
        passes += seed_ok
        details.append(f"seed {seed}: dC={c_err:.3f} S={learned.s:.3f}")
    elapsed = time.perf_counter() - started

    ok = passes >= 8 and elapsed < 300.0
    line = _report(
        2, ok, f"{passes}/10 seeds within tolerance, {elapsed:.0f}s < 300s"
    )
    assert ok, line + " | " + "; ".join(details)


def test_criterion_3_theory_column():
    report = bell.theory_correlations(DetectorAngles())
    targets = (-0.707, -0.707, -0.707, 0.707)
    c_err = max(abs(c - t) for c, t in zip(report.correlations(), targets))
    s_err = abs(report.s - 2.828)
    ok = c_err <= 5e-4 and s_err <= 1e-3
    line = _report(
        3, ok, f"pattern error {c_err:.1e} <= 5e-4, |S - 2.828| = {s_err:.1e} <= 1e-3"
    )
    assert ok, line


def test_criterion_4_locality_invariant():
    worst = locality_check(enumerate_distribution(load_reference_model()))
    rng = np.random.default_rng(2024)
    for _ in range(100):
        residual = locality_check(enumerate_distribution(random_model(rng)))
        worst = max(worst, residual)
    ok = worst <= 1e-10
    line = _report(4, ok, f"max factorization residual {worst:.2e} <= 1e-10")
    assert ok, line


def test_criterion_5_measurement_independence_violation():
    mi = measurement_independence_check(
        enumerate_distribution(load_reference_model())
    )
    rng = np.random.default_rng(99)
    free_tv = 0.0
    for _ in range(5):
        free = RbmModel(
            visible_bias=rng.normal(0.0, 2.0, 4),
            hidden_bias=rng.normal(0.0, 2.0, 4),
            weights=np.zeros((4, 4)),
        )
        check = measurement_independence_check(enumerate_distribution(free))
        free_tv = max(free_tv, check.max_tv)
    ok = mi.max_tv > FROZEN_MI_THRESHOLD and mi.max_tv > 0.05 and free_tv < 1e-12
    line = _report(
        5,
        ok,
        f"reference max TV {mi.max_tv:.6f} > {FROZEN_MI_THRESHOLD}, "
        f"zero-weight max TV {free_tv:.1e} < 1e-12",
    )
    assert ok, line


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst_rel = 0.0
    fd_ok = True
    for _ in range(20):
        model = random_model(rng, m=4, n=4, scale=1.0)
        data = (rng.random((50, 4)) < 0.5).astype(float)
        grad_w, grad_c, grad_d = exact_gradient(model, data)

        def ll(w, c, d):
            return average_log_likelihood(
                RbmModel(visible_bias=c, hidden_bias=d, weights=w), data
            )

        w0, c0, d0 = model.weights, model.visible_bias, model.hidden_bias
        for i in range(4):
            for j in range(4):
                wp, wm = w0.copy(), w0.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd = (ll(wp, c0, d0) - ll(wm, c0, d0)) / (2 * h)
                gap = abs(fd - grad_w[i, j])
                fd_ok &= gap <= 1e-5 * abs(grad_w[i, j]) + 1e-8
                worst_rel = max(worst_rel, gap / (abs(grad_w[i, j]) + 1e-8))
        for i in range(4):
            cp, cm = c0.copy(), c0.copy()
            cp[i] += h
            cm[i] -= h
            fd = (ll(w0, cp, d0) - ll(w0, cm, d0)) / (2 * h)
            gap = abs(fd - grad_c[i])
            fd_ok &= gap <= 1e-5 * abs(grad_c[i]) + 1e-8
        for j in range(4):
            dp, dm = d0.copy(), d0.copy()
            dp[j] += h
            dm[j] -= h
            fd = (ll(w0, c0, dp) - ll(w0, c0, dm)) / (2 * h)
            gap = abs(fd - grad_d[j])
            fd_ok &= gap <= 1e-5 * abs(grad_d[j]) + 1e-8

    # stochastic half: averaged PCD model moments against the exact ones
    model = load_reference_model()
    exact_vh, exact_v, exact_h = model_expectation_exact(model)
    rng = np.random.default_rng(77)
    chains = advance_chains(model, init_chains(1000, 4, rng), rng, 20)
    acc_vh = np.zeros((4, 4))
    acc_v = np.zeros(4)
    acc_h = np.zeros(4)
    for _ in range(100):
        vh, v_mean, h_mean, chains = model_expectation_pcd(model, chains, 5, rng)
        acc_vh += vh
        acc_v += v_mean
        acc_h += h_mean
    pcd_gap = max(
        np.abs(acc_vh / 100 - exact_vh).max(),
        np.abs(acc_v / 100 - exact_v).max(),
        np.abs(acc_h / 100 - exact_h).max(),
    )
    pcd_ok = pcd_gap <= 0.01

    ok = fd_ok and pcd_ok
    line = _report(
        6,
        ok,
        f"finite differences {'agree' if fd_ok else 'disagree'} at rel 1e-5 "
        f"(worst rel {worst_rel:.1e}); PCD gap {pcd_gap:.4f} <= 0.01",
    )
    assert ok, line


def test_criterion_7_sampler_oracle_agreement(
    reference_dist, reference_gibbs_sample
):
    visible, hidden = reference_gibbs_sample
    powers = np.array([8, 4, 2, 1])
    idx = (visible @ powers).astype(np.int64) * 16 + (hidden @ powers).astype(
        np.int64
    )
    counts = np.bincount(idx, minlength=256)
    tv = 0.5 * np.abs(counts / counts.sum() - reference_dist.joint.ravel()).sum()
    ok = tv <= 0.01
    line = _report(7, ok, f"joint TV over 256 states = {tv:.4f} <= 0.01")
    assert ok, line


def test_criterion_8_byte_identical_runs(tmp_path):
    # the same four commands run twice with the same arguments; the second
    # pass overwrites the first, so any nondeterminism shows as a byte change
    data = tmp_path / "trials.csv"
    model = tmp_path / "model.json"
    comparison = tmp_path / "comparison.csv"
    diagnostics = tmp_path / "report.json"

    def run_pipeline() -> dict:
        assert main(
            ["simulate", "--trials", "20000", "--seed", "17", "--out", str(data)]
        ) == 0
        assert main(
            ["train", "--data", str(data), "--out", str(model),
             "--seed", "17", "--epochs", "15"]
        ) == 0
        assert main(
            ["eval", "--model", str(model), "--data", str(data),
             "--out", str(comparison)]
        ) == 0
        assert main(
            ["diagnose", "--model", str(model), "--out", str(diagnostics)]
        ) == 0
        return {
            "dataset": data.read_bytes(),
            "sidecar": (tmp_path / "trials.csv.meta.json").read_bytes(),
            "model": model.read_bytes(),
            "trace": (tmp_path / "model.json.trace.csv").read_bytes(),
            "comparison": comparison.read_bytes(),
            "report": diagnostics.read_bytes(),
        }

    outputs = [run_pipeline(), run_pipeline()]
    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    ok = not mismatched
    line = _report(
        8,
        ok,
        "all six output files byte-identical"
        if ok
        else f"mismatched files: {', '.join(mismatched)}",
    )
    assert ok, line
