"""Command-line interface: simulate data, train, evaluate, diagnose.

Every command resolves its flags into a full configuration, runs on a single
master seed where randomness is involved, and writes a run manifest next to
its primary output, so any result file can be traced back to the exact
invocation that made it.

Exit codes: 0 success, 2 usage error, 3 data or layout error (or a
non-finite diagnostic), 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bell, exact, trainer
from .atomic import atomic_write
from .epr import (
    DetectorAngles,
    InsufficientDataError,
    SETTING_PAIR_LABELS,
    _read_json_object,
    empirical_correlations,
    generate_dataset,
    load_dataset,
    save_dataset,
    sidecar_path,
)
from .exact import enumerate_distribution
from .trainer import TrainerConfig, TrainingDivergedError, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

LOCALITY_RESIDUAL_BOUND = 1e-10
MI_TV_BOUND = 1e-3


@dataclass
class RunManifest:
    """Record of one CLI run: what was asked, with what seeds, what came out."""

    command: str
    config: dict
    seeds: dict
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    version: str = __version__
    duration_seconds: float = 0.0

    def write(self, primary_output) -> str:
        path = f"{primary_output}.manifest.json"
        payload = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": [str(p) for p in self.inputs],
            "outputs": [str(p) for p in self.outputs],
            "duration_seconds": self.duration_seconds,
        }
        with atomic_write(path) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path


def _parse_angles(text: str) -> DetectorAngles:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"--angles needs 4 comma-separated radians a,a',b,b', got {text!r}"
        )
    values = [float(p) for p in parts]
    return DetectorAngles(*values)


def _print_report(report: bell.CorrelationReport) -> None:
    for label, value in zip(bell.QUANTITY_LABELS, report.correlations()):
        print(f"{label:9s} = {value:+.3f}")
    print(f"S = {report.s:.3f}  [{report.source}]")


def _bell_verdict(s: float) -> str:
    if s > 2.0:
        return f"S = {s:.3f} (> 2: violates CHSH bound)"
    return f"S = {s:.3f} (<= 2: does not violate CHSH bound)"


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    angles = args.angles if args.angles is not None else DetectorAngles()
    dataset = generate_dataset(angles, args.trials, args.seed)
    save_dataset(dataset, args.out)
    try:
        report = empirical_correlations(dataset)
    except InsufficientDataError as err:
        print(f"correlation report unavailable: {err}")
        report = None
    if report is not None:
        _print_report(report)
    manifest = RunManifest(
        command="simulate",
        config={
            "trials": args.trials,
            "seed": args.seed,
            "angles": angles.to_dict(),
            "out": str(args.out),
        },
        seeds={"master": args.seed},
        inputs=[],
        outputs=[str(args.out), sidecar_path(args.out)],
        duration_seconds=time.perf_counter() - started,
    )
    manifest.write(args.out)
    return EXIT_OK


# the TrainerConfig field each train flag sets, keyed by the flag's dest
_TRAINER_FLAGS = {
    "seed": "seed",
    "learning_rate": "learning_rate",
    "lr_decay": "learning_rate_decay",
    "batch_size": "batch_size",
    "chains": "n_persistent_chains",
    "gibbs_steps": "gibbs_steps_per_update",
    "epochs": "n_epochs",
    "init_scale": "weight_init_scale",
}


def _resolve_trainer_config(args, parser: argparse.ArgumentParser) -> TrainerConfig:
    """Defaults, overridden by --config file values, overridden by flags.

    A bad flag value is a usage error that names the flag; a bad value read
    from the --config file raises TrainerConfig's ValueError, a data error.
    """
    values = _read_json_object(args.config) if args.config else {}
    for dest, key in _TRAINER_FLAGS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        try:
            # checked alone, so that the error is this flag's
            TrainerConfig(**{"seed": 0, key: value})
        except ValueError as err:
            parser.error(f"--{dest.replace('_', '-')}: {err}")
        values[key] = value
    if "seed" not in values:
        parser.error("a seed is required: pass --seed or put one in --config")
    return TrainerConfig.from_dict(values)


def cmd_train(args, parser: argparse.ArgumentParser) -> int:
    started = time.perf_counter()
    config = _resolve_trainer_config(args, parser)
    dataset = load_dataset(args.data)
    trace_path = args.trace if args.trace else f"{args.out}.trace.csv"
    try:
        model, trace = trainer.train(dataset, config)
    except TrainingDivergedError as err:
        err.trace.to_csv(trace_path)
        print(f"{err} (partial trace kept at {trace_path})", file=sys.stderr)
        return EXIT_DIVERGED
    save_model(args.out, model, trainer_config=config, dataset_seed=dataset.seed)
    trace.to_csv(trace_path)
    report = bell.model_correlations_exact(model)
    print(f"trained model written to {args.out}")
    _print_report(report)
    print(_bell_verdict(report.s))
    manifest = RunManifest(
        command="train",
        config={
            "data": str(args.data),
            "out": str(args.out),
            "trace": str(trace_path),
            "trainer": config.to_dict(),
        },
        seeds={"master": config.seed},
        inputs=[str(args.data), sidecar_path(args.data)],
        outputs=[str(args.out), str(trace_path)],
        duration_seconds=time.perf_counter() - started,
    )
    manifest.write(args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.perf_counter()
    model, _ = load_model(args.model)
    angles = DetectorAngles()
    data_report = None
    if args.data:
        dataset = load_dataset(args.data)
        # the theory column is the prediction at the angles the data was taken at
        angles = dataset.angles
        data_report = empirical_correlations(dataset)
    theory = bell.theory_correlations(angles)
    model_report = bell.model_correlations_exact(model)
    print(bell.comparison_table(theory, data_report, model_report), end="")
    print(_bell_verdict(model_report.s))
    if args.out:
        with atomic_write(args.out, newline="") as fh:
            fh.write(bell.comparison_table(theory, data_report, model_report, csv=True))
        manifest = RunManifest(
            command="eval",
            config={
                "model": str(args.model),
                "data": str(args.data) if args.data else None,
                "out": str(args.out),
            },
            seeds={},
            inputs=[str(args.model)] + ([str(args.data)] if args.data else []),
            outputs=[str(args.out)],
            duration_seconds=time.perf_counter() - started,
        )
        manifest.write(args.out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    started = time.perf_counter()
    model, _ = load_model(args.model)
    # a non-finite diagnostic is refused below, so its warnings say nothing more
    with np.errstate(all="ignore"):
        dist = enumerate_distribution(model)
        residual = exact.locality_check(dist)
        mi = exact.measurement_independence_check(dist)
    pair_names = [SETTING_PAIR_LABELS[p] for p in mi.setting_pairs]
    tv_names = [f"TV(P(lambda | {name}), P(lambda))" for name in pair_names]
    named = [("factorization residual", residual), ("pooled P(lambda)", mi.pooled)]
    named += [("P(lambda | settings)", mi.conditional), *zip(tv_names, mi.tv_distances)]
    for name, value in named:
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite; no verdict can be drawn")
    n = model.n_hidden
    # hidden state i is row i of exact.bit_patterns(n), written as bits
    labels = [format(i, f"0{n}b") for i in range(2**n)]

    # below 1e-12 the residual is rounding noise; --out keeps the exact value
    shown = "< 1e-12" if residual < 1e-12 else f"= {residual:.3e}"
    print(f"max factorization residual {shown}")
    if residual <= LOCALITY_RESIDUAL_BOUND:
        print(f"locality PASS (residual <= {LOCALITY_RESIDUAL_BOUND:g})")
    else:
        print(f"locality FAIL (residual > {LOCALITY_RESIDUAL_BOUND:g})")
    print()
    header = "lambda  " + "  ".join(f"{name:>8s}" for name in pair_names + ["pooled"])
    print("P(lambda | settings):")
    print(header)
    for i, label in enumerate(labels):
        cells = [f"{mi.conditional[p][i]:8.5f}" for p in range(4)]
        cells.append(f"{mi.pooled[i]:8.5f}")
        print(f"{label:6s}  " + "  ".join(cells))
    print()
    for name, tv in zip(tv_names, mi.tv_distances):
        print(f"{name} = {tv:.6f}")
    if mi.max_tv > MI_TV_BOUND:
        print(
            f"measurement independence VIOLATED (max TV = {mi.max_tv:.6f} "
            f"> {MI_TV_BOUND:g})"
        )
    else:
        print(
            f"measurement independence not violated (max TV = {mi.max_tv:.6f} "
            f"<= {MI_TV_BOUND:g})"
        )

    if args.out:
        report = {
            "model": str(args.model),
            "locality": {
                "max_residual": residual,
                "threshold": LOCALITY_RESIDUAL_BOUND,
                "pass": bool(residual <= LOCALITY_RESIDUAL_BOUND),
            },
            "measurement_independence": {
                "setting_pairs": [list(p) for p in mi.setting_pairs],
                "hidden_state_labels": labels,
                "conditional": mi.conditional.tolist(),
                "pooled": mi.pooled.tolist(),
                "tv_distances": mi.tv_distances.tolist(),
                "max_tv": mi.max_tv,
                "threshold": MI_TV_BOUND,
                "violated": bool(mi.max_tv > MI_TV_BOUND),
            },
        }
        with atomic_write(args.out) as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
            fh.write("\n")
        manifest = RunManifest(
            command="diagnose",
            config={"model": str(args.model), "out": str(args.out)},
            seeds={},
            inputs=[str(args.model)],
            outputs=[str(args.out)],
            duration_seconds=time.perf_counter() - started,
        )
        manifest.write(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprbm",
        description=(
            "Simulate EPR experiment data, train a restricted Boltzmann "
            "machine on it, and analyze the result as a hidden-variable model."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a simulated EPR dataset")
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument(
        "--angles",
        type=str,
        default=None,
        help="detector angles a,a',b,b' in radians (default: 0,pi/2,pi/4,-pi/4)",
    )
    p_sim.add_argument("--out", required=True, help="dataset CSV path")

    p_train = sub.add_parser("train", help="train a model on a dataset")
    p_train.add_argument("--data", required=True, help="dataset CSV from simulate")
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.add_argument("--trace", default=None, help="trace CSV path")
    p_train.add_argument("--config", default=None, help="trainer config JSON path")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--lr-decay", type=float, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--chains", type=int, default=None)
    p_train.add_argument("--gibbs-steps", type=int, default=None)
    p_train.add_argument("--init-scale", type=float, default=None)

    p_eval = sub.add_parser("eval", help="compare theory/data/model correlations")
    p_eval.add_argument("--model", required=True, help="model JSON path")
    p_eval.add_argument("--data", default=None, help="optional dataset CSV")
    p_eval.add_argument("--out", default=None, help="optional comparison CSV path")

    p_diag = sub.add_parser(
        "diagnose", help="run locality and measurement-independence checks"
    )
    p_diag.add_argument("--model", required=True, help="model JSON path")
    p_diag.add_argument("--out", default=None, help="optional JSON report path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        if args.trials < 1:
            parser.error(f"--trials must be at least 1, got {args.trials}")
        if args.seed < 0:
            parser.error(f"--seed must be non-negative, got {args.seed}")
        if args.angles is not None:
            try:
                args.angles = _parse_angles(args.angles)
            except ValueError as err:
                parser.error(str(err))
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "train":
            return cmd_train(args, parser)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "diagnose":
            return cmd_diagnose(args)
        parser.error(f"unknown command {args.command!r}")
    except TrainingDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
