"""The three benchmark workloads and the checks that decide a failed operation.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. A workload builds all its inputs from the
seed in ``setup``; ``operation`` runs one unit of work, wrapping each call
into an eprbm layer in a span; ``verify`` checks the outputs of that unit
outside the timed region and records the result in an ``Outcome``. A
workload whose operations cycle through a fixed set of inputs
(``exact_sweep``) checks each input once, untimed, in ``check_inputs``, so
its failure count depends on the seed alone; its ``verify`` then requires
each timed operation to reproduce that checked result exactly.

Two documented program defects are kept visible on purpose, so their
failures are counted, but as known ones that leave the run ``correct``:
the wrong theory column of ``eprbm eval`` at non-default angles, and the
NaN or raising diagnostics of models with parameters at scale 100.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from pytest_benchmark.timers import default_timer

from eprbm import bell, exact, trainer
from eprbm.epr import DetectorAngles, empirical_correlations, generate_dataset
from eprbm.rbm import RbmModel

import tracing

LOCALITY_BOUND = 1e-10
ZERO_WEIGHT_TV_BOUND = 1e-12
# The bound `eprbm diagnose` applies to the measurement-independence TV.
MI_TV_BOUND = 1e-3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of a run; ``SMOKE`` shrinks them for the benchmark's own test."""

    train_trials: int = 100_000
    # A default run is 200 epochs (~55 s on a 2-core Xeon VM), too long for
    # a timed loop; one epoch keeps every per-update shape (1,000 updates of
    # batch 100, 100 chains, k=5) and gives ~150 timed trainings in 45 s.
    train_epochs: int = 1
    cli_trials: int = 1_000_000
    models_per_scale: int = 100
    setup_repeats: int = 15
    replay_budget_s: float = 0.3
    replay_min_rounds: int = 3


FULL = Sizes()
SMOKE = Sizes(
    train_trials=2_000,
    train_epochs=1,
    cli_trials=20_000,
    models_per_scale=4,
    setup_repeats=2,
    replay_budget_s=0.0,
    replay_min_rounds=1,
)


class Outcome:
    """Operations attempted and failed, with the failing checks counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_known = 0
        self.by_check: Counter = Counter()

    def record(self, failures: list[str], known_defect: bool = False) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failed_known += known_defect
            self.by_check.update(failures)

    @property
    def unexpected(self) -> int:
        return self.failed - self.failed_known

    def to_dict(self) -> dict:
        base = self.attempted
        return {
            "attempted": base,
            "failed": self.failed,
            "failed_share": self.failed / base if base else 0.0,
            "failed_known_defect": self.failed_known,
            "failed_unexpected": self.unexpected,
            "by_check": {
                name: {"failed": n, "of": base, "share": n / base}
                for name, n in sorted(self.by_check.items())
            },
        }


# Work counted at the layer boundaries the benchmark sees, per traced loop;
# a layer the workload leaves idle counts 0.
COUNTS = ("trainer.updates", "trainer.gibbs_sweeps", "exact.states_enumerated")


class TrainDefault:
    """One default-hyperparameter training on a 100k-trial standard dataset."""

    name = "train_default"
    program_in_children = False

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.last_model = None
        self.counts = Counter()

    def setup(self) -> None:
        self.dataset = generate_dataset(DetectorAngles(), self.sizes.train_trials, self.seed)

    def operation(self, i: int, op: str, tracer):
        config = trainer.TrainerConfig(
            seed=self.seed * 1000 + i, n_epochs=self.sizes.train_epochs
        )
        try:
            with tracer.span("trainer.train", op):
                return trainer.train(self.dataset, config)
        except trainer.TrainingDivergedError as err:
            return err

    def verify(self, result, outcome: Outcome) -> None:
        if isinstance(result, trainer.TrainingDivergedError):
            outcome.record(["diverged"])
            return
        model, trace = result
        defaults = trainer.TrainerConfig(seed=0)
        updates = len(trace) * -(-len(self.dataset) // defaults.batch_size)
        self.counts["trainer.updates"] += updates
        self.counts["trainer.gibbs_sweeps"] += updates * defaults.gibbs_steps_per_update
        failures = []
        if len(trace) != self.sizes.train_epochs:
            failures.append("trace_length")
        if not all(
            math.isfinite(r.avg_log_likelihood) and math.isfinite(r.s)
            for r in trace.records
        ):
            failures.append("non_finite_trace")
        if not math.isfinite(bell.model_correlations_exact(model).s):
            failures.append("non_finite_model_s")
        self.last_model = model
        outcome.record(failures)

    def replay_inputs(self) -> tuple[RbmModel, int, DetectorAngles]:
        """Model, trial count and angles for the per-layer replay."""
        return self.last_model, self.sizes.train_trials, DetectorAngles()


EXTREME_SCALE = 100.0
SCALES = (0.01, 0.1, 1.0, 3.0, 10.0, EXTREME_SCALE)


class ExactSweep:
    """Full exact diagnosis of a seeded population of 4x4 models."""

    name = "exact_sweep"
    program_in_children = False

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.counts = Counter()

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        k = self.sizes.models_per_scale
        population = []
        for scale in SCALES:
            for _ in range(k):
                population.append(
                    (
                        f"scale={scale:g}",
                        RbmModel(
                            visible_bias=rng.normal(0.0, scale, 4),
                            hidden_bias=rng.normal(0.0, scale, 4),
                            weights=rng.normal(0.0, scale, (4, 4)),
                        ),
                    )
                )
        for _ in range(k):
            population.append(
                (
                    "zero_weight",
                    RbmModel(
                        visible_bias=rng.normal(0.0, 2.0, 4),
                        hidden_bias=rng.normal(0.0, 2.0, 4),
                        weights=np.zeros((4, 4)),
                    ),
                )
            )
        # shuffled, so the models a time-bounded run reaches mix all scales
        self.population = [population[j] for j in rng.permutation(len(population))]

    def operation(self, i: int, op: str, tracer):
        j = i % len(self.population)
        return j, self._diagnose(self.population[j][1], op, tracer)

    def _diagnose(self, model: RbmModel, op: str, tracer):
        # the diagnosis may raise on a zero-probability setting pair; that is
        # an outcome to record, so the loop keeps running
        try:
            with tracer.span("exact.enumerate_distribution", op):
                dist = exact.enumerate_distribution(model)
            self.counts["exact.states_enumerated"] += dist.joint.size
            with tracer.span("bell.correlations_from_distribution", op):
                s = bell.correlations_from_distribution(dist).s
            with tracer.span("exact.locality_check", op):
                residual = exact.locality_check(dist)
            with tracer.span("exact.measurement_independence_check", op):
                mi = exact.measurement_independence_check(dist)
        except Exception as err:  # noqa: BLE001 - recorded as a failure
            return f"raised_{type(err).__name__}"
        return residual, mi.max_tv, s

    def check_inputs(self, outcome: Outcome) -> None:
        """Diagnose every model once, untimed, and check the result.

        The timed loop cycles through the same models, so one check per model
        decides the failures: their count depends on the seed alone, not on
        how many diagnoses a run of the given length completes. Every timed
        diagnosis must then reproduce its model's result exactly.
        """
        self.expected = []
        for kind, model in self.population:
            value = self._diagnose(model, "check", tracing.NullTracer())
            self.expected.append(value)
            if isinstance(value, str):
                failures = [value]
            else:
                residual, max_tv, _ = value
                failures = []
                if not math.isfinite(residual):
                    failures.append("residual_non_finite")
                elif residual > LOCALITY_BOUND:
                    failures.append("residual_above_bound")
                if kind == "zero_weight" and not max_tv <= ZERO_WEIGHT_TV_BOUND:
                    failures.append("zero_weight_tv")
            outcome.record(failures, known_defect=kind == f"scale={EXTREME_SCALE:g}")

    def verify(self, result, outcome: Outcome) -> None:
        j, value = result
        # repr compares floats exactly and takes NaN as equal to NaN
        if repr(value) != repr(self.expected[j]):
            outcome.record(["not_reproduced"])

    def replay_inputs(self) -> tuple[RbmModel, int, DetectorAngles]:
        # no dataset here: replay I/O at the size of the default `simulate`
        return trainer.load_reference_model(), self.sizes.train_trials, DetectorAngles()


def cli_env() -> dict:
    src = str(Path(exact.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def seeded_angles(seed: int) -> DetectorAngles:
    """Non-default detector angles drawn from the seed."""
    a, a_prime, b, b_prime = np.random.default_rng(seed).uniform(-math.pi, math.pi, 4)
    return DetectorAngles(float(a), float(a_prime), float(b), float(b_prime))


def angles_flag(angles: DetectorAngles) -> str:
    values = (angles.a, angles.a_prime, angles.b, angles.b_prime)
    return "--angles=" + ",".join(repr(v) for v in values)


def _read_comparison(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["quantity", "theory", "data", "model"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return {row[0]: [float(cell) for cell in row[1:]] for row in rows[1:]}


def _column_matches(table: dict, column: int, expected: tuple) -> bool:
    """Five rows (four correlations, S) printed at 3 decimals."""
    keys = ("c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime", "s")
    return all(
        abs(table[key][column] - value) <= 5e-4 + 1e-9
        for key, value in zip(keys, expected)
    )


class CliPipeline:
    """Fresh-process ``simulate``, ``eval --data --out``, ``diagnose --out``."""

    name = "cli_pipeline"
    program_in_children = True
    COMMANDS = ("simulate", "eval", "diagnose")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.angles = seeded_angles(seed)
        self.env = cli_env()
        self.walls = {name: [] for name in self.COMMANDS}
        self.counts = Counter()
        self._expected = None

    def setup(self) -> None:
        self.model_path = self.workdir / "reference_model.json"
        trainer.save_model(self.model_path, trainer.load_reference_model())
        # one interpreter start fills the page cache for the commands
        subprocess.run(
            [sys.executable, "-m", "eprbm.cli", "--version"],
            env=self.env,
            stdout=subprocess.DEVNULL,
            check=True,
        )

    def _argv(self, command: str, sim_seed: int) -> list[str]:
        data, out = self.workdir / "trials.csv", self.workdir / "out"
        if command == "simulate":
            return ["--trials", str(self.sizes.cli_trials), "--seed", str(sim_seed),
                    angles_flag(self.angles), "--out", str(data)]
        if command == "eval":
            return ["--model", str(self.model_path), "--data", str(data),
                    "--out", f"{out}.csv"]
        return ["--model", str(self.model_path), "--out", f"{out}.json"]

    def operation(self, i: int, op: str, tracer):
        sim_seed = self.seed * 1000 + i
        codes = {}
        for command in self.COMMANDS:
            argv = [sys.executable, "-m", "eprbm.cli", command, *self._argv(command, sim_seed)]
            with tracer.span(f"cli.{command}", op):
                started = default_timer()
                proc = subprocess.run(
                    argv,
                    cwd=self.workdir,
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                self.walls[command].append(default_timer() - started)
            codes[command] = proc.returncode
        return sim_seed, codes

    def _library_expectations(self):
        if self._expected is None:
            model = trainer.load_reference_model()
            dist = exact.enumerate_distribution(model)
            self._expected = (
                bell.correlations_from_distribution(dist),
                exact.measurement_independence_check(dist),
            )
        return self._expected

    def verify(self, result, outcome: Outcome) -> None:
        sim_seed, codes = result
        model_report, mi = self._library_expectations()
        data_path, out = self.workdir / "trials.csv", self.workdir / "out"

        failures = [] if codes["simulate"] == 0 else ["simulate_exit"]
        if not failures:
            with open(f"{data_path}.meta.json") as fh:
                meta = json.load(fh)
            if meta["n_trials"] != self.sizes.cli_trials or meta["seed"] != sim_seed:
                failures.append("simulate_sidecar")
            if DetectorAngles.from_dict(meta["angles"]) != self.angles:
                failures.append("simulate_angles")
        outcome.record(failures)

        failures = [] if codes["eval"] == 0 else ["eval_exit"]
        if not failures:
            table = _read_comparison(Path(f"{out}.csv"))
            a = self.angles
            theory = [
                -math.cos(a.a - a.b),
                -math.cos(a.a - a.b_prime),
                -math.cos(a.a_prime - a.b),
                -math.cos(a.a_prime - a.b_prime),
            ]
            theory.append(abs(theory[0] + theory[1] + theory[2] - theory[3]))
            data = empirical_correlations(
                generate_dataset(self.angles, self.sizes.cli_trials, sim_seed)
            )
            if not _column_matches(table, 0, theory):
                failures.append("eval_theory_column")
            if not _column_matches(table, 1, (*data.correlations(), data.s)):
                failures.append("eval_data_column")
            if not _column_matches(table, 2, (*model_report.correlations(), model_report.s)):
                failures.append("eval_model_column")
        outcome.record(failures, known_defect=failures == ["eval_theory_column"])

        failures = [] if codes["diagnose"] == 0 else ["diagnose_exit"]
        if not failures:
            with open(f"{out}.json") as fh:
                report = json.load(fh)
            locality = report["locality"]
            # the outcome units are conditionally independent given the
            # hidden state for every RBM, so locality must always pass
            if not (locality["pass"] is True and locality["max_residual"] <= LOCALITY_BOUND):
                failures.append("diagnose_locality_verdict")
            reported = report["measurement_independence"]
            if not (
                abs(reported["max_tv"] - mi.max_tv) <= 1e-12
                and np.allclose(reported["conditional"], mi.conditional, rtol=0, atol=1e-12)
            ):
                failures.append("diagnose_mi_values")
            if reported["violated"] is not (mi.max_tv > MI_TV_BOUND):
                failures.append("diagnose_mi_verdict")
        outcome.record(failures)

    def replay_inputs(self) -> tuple[RbmModel, int, DetectorAngles]:
        return trainer.load_reference_model(), self.sizes.cli_trials, self.angles


WORKLOADS = {w.name: w for w in (TrainDefault, CliPipeline, ExactSweep)}
