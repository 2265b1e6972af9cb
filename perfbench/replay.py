"""Per-layer timings: each layer's public functions replayed at a workload's shapes.

``eprbm.trainer.train`` and the CLI commands are opaque from outside, so the
traced run times their parts by calling the same public functions again, on a
model snapshot taken from the workload and at its sizes: PCD updates of 100
chains with k=5 on minibatches of 100 rows, one 4x4 model, a dataset of the
workload's trial count. Figures from here are labelled "replayed".

Each function is called for at least ``min_rounds`` rounds and until
``budget_s`` seconds have been spent on it; each call is one span, and its
duration, scaled to the reference speed (see ``calibration``), is one sample
of a pytest-benchmark ``Stats``.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import cycle
from pathlib import Path

import numpy as np
from pytest_benchmark.stats import Stats
from pytest_benchmark.timers import default_timer

from eprbm import bell, cli, epr, exact, rbm, trainer
from workloads import angles_flag

# metric name -> (replayed call, unit, factor from seconds)
TIMINGS = {
    "trainer.model_expectation_pcd_us": ("trainer.model_expectation_pcd", "us", 1e6),
    "rbm.advance_chains_us": ("rbm.advance_chains", "us", 1e6),
    "trainer.data_expectation_us": ("trainer.data_expectation", "us", 1e6),
    "trainer.average_log_likelihood_ms": ("trainer.average_log_likelihood", "ms", 1e3),
    "trainer.model_expectation_exact_us": ("trainer.model_expectation_exact", "us", 1e6),
    "exact.enumerate_distribution_us": ("exact.enumerate_distribution", "us", 1e6),
    "exact.locality_check_us": ("exact.locality_check", "us", 1e6),
    "exact.measurement_independence_check_us": (
        "exact.measurement_independence_check", "us", 1e6),
    "bell.correlations_from_distribution_us": (
        "bell.correlations_from_distribution", "us", 1e6),
    "epr.generate_dataset_s": ("epr.generate_dataset", "s", 1.0),
    "epr.save_dataset_s": ("epr.save_dataset", "s", 1.0),
    "epr.load_dataset_s": ("epr.load_dataset", "s", 1.0),
    "epr.empirical_correlations_s": ("epr.empirical_correlations", "s", 1.0),
    "epr.encode_dataset_s": ("epr.encode_dataset", "s", 1.0),
    "trainer.save_model_ms": ("trainer.save_model", "ms", 1e3),
    "trainer.load_model_ms": ("trainer.load_model", "ms", 1e3),
    "cli.import_s": ("cli.import", "s", 1.0),
    "cli.main_simulate_s": ("cli.main_simulate", "s", 1.0),
    "cli.main_eval_s": ("cli.main_eval", "s", 1.0),
    "cli.main_diagnose_s": ("cli.main_diagnose", "s", 1.0),
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import eprbm.cli; "
    "print(time.perf_counter() - t)"
)


class Replayer:
    def __init__(self, tracer, speed, budget_s: float, min_rounds: int):
        self.tracer = tracer
        self.speed = speed
        self.budget_s = budget_s
        self.min_rounds = min_rounds
        self.stats: dict[str, Stats] = {}

    def time(self, call: str, fn, self_timed: bool = False) -> None:
        """Time ``fn`` as replayed ``call``.

        A ``self_timed`` fn returns its own measured duration in seconds
        (the import probe times itself inside a fresh interpreter);
        otherwise the wall time of the call is the sample. Samples are
        scaled to the reference speed by kernel samples around the rounds.
        """
        samples = []
        spent = 0.0
        self.speed.sample()
        first = default_timer()
        while len(samples) < self.min_rounds or spent < self.budget_s:
            with self.tracer.span(call, f"replay.{call}.{len(samples)}"):
                started = default_timer()
                measured = fn()
                wall = default_timer() - started
            samples.append(measured if self_timed else wall)
            spent += wall
        last = default_timer()
        self.speed.sample()
        factor = self.speed.scaled(first, last, 1.0)
        stats = Stats()
        for sample in samples:
            stats.update(sample * factor)
        self.stats[call] = stats


def _run_main(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eprbm {' '.join(argv)} exited with {code}")


def replay_layers(
    model: rbm.RbmModel,
    trials: int,
    angles: epr.DetectorAngles,
    seed: int,
    workdir: Path,
    tracer,
    speed,
    budget_s: float,
    min_rounds: int,
    env: dict,
) -> tuple[dict[str, Stats], int]:
    """Replay every layer; returns the ``Stats`` of each replayed call and
    the size in bytes of the dataset CSV the replayed ``save_dataset`` wrote."""
    workdir.mkdir(parents=True, exist_ok=True)
    r = Replayer(tracer, speed, budget_s, min_rounds)
    state = {}
    config = trainer.TrainerConfig(seed=seed)
    rng = np.random.default_rng(seed)
    csv_path = workdir / "replay_trials.csv"
    model_path = workdir / "replay_model.json"

    def generate():
        state["dataset"] = epr.generate_dataset(angles, trials, seed)

    r.time("epr.generate_dataset", generate)
    dataset = state["dataset"]
    r.time("epr.save_dataset", lambda: epr.save_dataset(dataset, csv_path))
    csv_bytes = os.path.getsize(csv_path)
    r.time("epr.load_dataset", lambda: epr.load_dataset(csv_path))
    r.time("epr.empirical_correlations", lambda: epr.empirical_correlations(dataset))
    r.time("epr.encode_dataset", lambda: epr.encode_dataset(dataset))

    data = epr.encode_dataset(dataset)[rng.permutation(trials)]
    starts = cycle(range(0, trials, config.batch_size))
    state["chains"] = trainer.init_chains(config.n_persistent_chains, data.shape[1], rng)
    k = config.gibbs_steps_per_update

    def data_step():
        start = next(starts)
        trainer.data_expectation(model, data[start : start + config.batch_size])

    def pcd_step():
        state["chains"] = trainer.model_expectation_pcd(model, state["chains"], k, rng)[3]

    r.time("trainer.data_expectation", data_step)
    r.time("trainer.model_expectation_pcd", pcd_step)
    r.time("rbm.advance_chains", lambda: rbm.advance_chains(model, state["chains"], rng, k))
    r.time("trainer.model_expectation_exact", lambda: trainer.model_expectation_exact(model))
    r.time("trainer.average_log_likelihood", lambda: trainer.average_log_likelihood(model, data))
    r.time("trainer.save_model", lambda: trainer.save_model(model_path, model))
    r.time("trainer.load_model", lambda: trainer.load_model(model_path))

    def enumerate_():
        state["dist"] = exact.enumerate_distribution(model)

    r.time("exact.enumerate_distribution", enumerate_)
    dist = state["dist"]
    r.time("exact.locality_check", lambda: exact.locality_check(dist))
    r.time("exact.measurement_independence_check",
           lambda: exact.measurement_independence_check(dist))
    r.time("bell.correlations_from_distribution",
           lambda: bell.correlations_from_distribution(dist))

    def import_probe():
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        return float(out.stdout)

    r.time("cli.import", import_probe, self_timed=True)
    cli_csv = workdir / "replay_cli.csv"
    r.time("cli.main_simulate", lambda: _run_main([
        "simulate", "--trials", str(trials), "--seed", str(seed),
        angles_flag(angles), "--out", str(cli_csv),
    ]))
    r.time("cli.main_eval", lambda: _run_main([
        "eval", "--model", str(model_path), "--data", str(cli_csv),
        "--out", str(workdir / "replay_cmp.csv"),
    ]))
    r.time("cli.main_diagnose", lambda: _run_main([
        "diagnose", "--model", str(model_path), "--out", str(workdir / "replay_report.json"),
    ]))
    return r.stats, csv_bytes
