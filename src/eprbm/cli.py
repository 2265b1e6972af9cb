"""Command-line interface: simulate data, train, evaluate, diagnose.

Every command resolves its flags into a full configuration, runs on a single
master seed where randomness is involved, and writes a run manifest next to
its primary output, so any result file can be traced back to the exact
invocation that made it.

Exit codes: 0 success, 2 usage error, 3 data or layout error (or a
non-finite diagnostic, or an array too large to allocate), 4 training
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, bell, exact, trainer
from .atomic import atomic_write, write_json
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
from .trainer import TrainerConfig, TrainingDivergedError, load_model, save_model

EXIT_OK = 0
EXIT_DATA = 3
EXIT_DIVERGED = 4

LOCALITY_RESIDUAL_BOUND = 1e-10
MI_TV_BOUND = 1e-3


def _manifest_path(out) -> str:
    return f"{out}.manifest.json"


def _check_outputs(args, inputs, outputs) -> None:
    """Refuse, before any work, an output that could not be written or that
    would destroy a file: one whose directory is missing, that is a
    directory itself, or whose real path is an input's or another output's.
    When --out is given, the outputs are the given ones and its manifest."""
    if not args.out:
        return
    seen = {os.path.realpath(path): f"input {path}" for path in inputs}
    for path in (*outputs, _manifest_path(args.out)):
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"{path}: {parent} is not a directory")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"output {path} is the same file as {seen[real]}")
        seen[real] = f"output {path}"


def _write_manifest(args, *, config, inputs, outputs, seed=None) -> None:
    """Write <args.out>.manifest.json, the record of one run: what was asked,
    with what master seed (if any), what came out, and how long it took."""
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "seeds": {} if seed is None else {"master": seed},
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - args.started,
    }
    write_json(_manifest_path(args.out), manifest)


def _parse_angles(text: str) -> DetectorAngles:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"--angles needs 4 comma-separated radians a,a',b,b', got {text!r}"
        )
    try:
        return DetectorAngles(*map(float, parts))
    except ValueError as err:
        raise ValueError(f"--angles: {err}") from None


def _print_report(report: bell.CorrelationReport) -> None:
    for label, value in zip(bell.QUANTITY_LABELS, report.correlations()):
        print(f"{label:9s} = {value:+.3f}")
    print(f"S = {report.s:.3f}  [{report.source}]")


def _bell_verdict(s: float) -> str:
    if s > 2.0:
        return f"S = {s:.3f} (> 2: violates CHSH bound)"
    return f"S = {s:.3f} (<= 2: does not violate CHSH bound)"


def cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    try:
        angles = DetectorAngles() if args.angles is None else _parse_angles(args.angles)
    except ValueError as err:
        parser.error(str(err))
    inputs, outputs = [], [args.out, sidecar_path(args.out)]
    _check_outputs(args, inputs, outputs)
    try:
        dataset = generate_dataset(angles, args.trials, args.seed)
    except (ValueError, MemoryError) as err:
        raise ValueError(f"{err} (--trials {args.trials} is too large)") from None
    save_dataset(dataset, args.out)
    try:
        _print_report(empirical_correlations(dataset))
    except InsufficientDataError as err:
        print(f"correlation report unavailable: {err}")
    _write_manifest(
        args,
        config={
            "trials": args.trials,
            "seed": args.seed,
            "angles": angles.to_dict(),
            "out": args.out,
        },
        inputs=inputs,
        outputs=outputs,
        seed=args.seed,
    )
    return EXIT_OK


# the TrainerConfig field each train flag sets, by the flag's dest, in --help order
_TRAINER_FLAGS = {
    "seed": "seed",
    "learning_rate": "learning_rate",
    "lr_decay": "learning_rate_decay",
    "epochs": "n_epochs",
    "batch_size": "batch_size",
    "chains": "n_persistent_chains",
    "gibbs_steps": "gibbs_steps_per_update",
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
    config = _resolve_trainer_config(args, parser)
    trace_path = args.trace or f"{args.out}.trace.csv"
    inputs = [args.data, sidecar_path(args.data)]
    if args.config:
        inputs.append(args.config)
    outputs = [args.out, trace_path]
    _check_outputs(args, inputs, outputs)
    dataset = load_dataset(args.data)
    try:
        model, trace = trainer.train(dataset, config)
    except TrainingDivergedError as err:
        err.trace.to_csv(trace_path)
        print(f"{err} (partial trace kept at {trace_path})", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as err:
        # the data has loaded, so what train cannot allocate is sized by the chains
        n_chains = config.n_persistent_chains
        raise MemoryError(f"{err} (--chains {n_chains} is too large)") from None
    save_model(args.out, model, trainer_config=config, dataset_seed=dataset.seed)
    trace.to_csv(trace_path)
    report = bell.model_correlations_exact(model)
    print(f"trained model written to {args.out}")
    _print_report(report)
    print(_bell_verdict(report.s))
    _write_manifest(
        args,
        config={
            "data": args.data,
            "out": args.out,
            "trace": trace_path,
            "trainer": config.to_dict(),
        },
        inputs=inputs,
        outputs=outputs,
        seed=config.seed,
    )
    return EXIT_OK


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    inputs = [args.model] + ([args.data, sidecar_path(args.data)] if args.data else [])
    outputs = [args.out]
    _check_outputs(args, inputs, outputs)
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
        _write_manifest(
            args,
            config={"model": args.model, "data": args.data or None, "out": args.out},
            inputs=inputs,
            outputs=outputs,
        )
    return EXIT_OK


def cmd_diagnose(args, parser: argparse.ArgumentParser) -> int:
    inputs, outputs = [args.model], [args.out]
    _check_outputs(args, inputs, outputs)
    model, _ = load_model(args.model)
    # a non-finite diagnostic is refused below, so its warnings say nothing more
    with np.errstate(all="ignore"):
        dist = exact.enumerate_distribution(model)
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
    passed = residual <= LOCALITY_RESIDUAL_BOUND
    verdict, relation = ("PASS", "<=") if passed else ("FAIL", ">")
    print(f"locality {verdict} (residual {relation} {LOCALITY_RESIDUAL_BOUND:g})")
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
    violated = mi.max_tv > MI_TV_BOUND
    verdict, relation = ("VIOLATED", ">") if violated else ("not violated", "<=")
    print(
        f"measurement independence {verdict} (max TV = {mi.max_tv:.6f} "
        f"{relation} {MI_TV_BOUND:g})"
    )

    if args.out:
        report = {
            "model": args.model,
            "locality": {
                "max_residual": residual,
                "threshold": LOCALITY_RESIDUAL_BOUND,
                "pass": passed,
            },
            "measurement_independence": {
                "setting_pairs": [list(p) for p in mi.setting_pairs],
                "hidden_state_labels": labels,
                "conditional": mi.conditional.tolist(),
                "pooled": mi.pooled.tolist(),
                "tv_distances": mi.tv_distances.tolist(),
                "max_tv": mi.max_tv,
                "threshold": MI_TV_BOUND,
                "violated": violated,
            },
        }
        write_json(args.out, report)
        _write_manifest(
            args,
            config={"model": args.model, "out": args.out},
            inputs=inputs,
            outputs=outputs,
        )
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
    p_sim.set_defaults(run=cmd_simulate)

    p_train = sub.add_parser("train", help="train a model on a dataset")
    p_train.add_argument("--data", required=True, help="dataset CSV from simulate")
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.add_argument("--trace", default=None, help="trace CSV path")
    p_train.add_argument("--config", default=None, help="trainer config JSON path")
    defaults = TrainerConfig(seed=0)
    for dest, key in _TRAINER_FLAGS.items():
        kind = type(getattr(defaults, key))  # int or float, as the field's default
        p_train.add_argument(f"--{dest.replace('_', '-')}", type=kind)
    p_train.set_defaults(run=cmd_train)

    p_eval = sub.add_parser("eval", help="compare theory/data/model correlations")
    p_eval.add_argument("--model", required=True, help="model JSON path")
    p_eval.add_argument("--data", default=None, help="optional dataset CSV")
    p_eval.add_argument("--out", default=None, help="optional comparison CSV path")
    p_eval.set_defaults(run=cmd_eval)

    p_diag = sub.add_parser(
        "diagnose", help="run locality and measurement-independence checks"
    )
    p_diag.add_argument("--model", required=True, help="model JSON path")
    p_diag.add_argument("--out", default=None, help="optional JSON report path")
    p_diag.set_defaults(run=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each command's manifest times its run from here
    args.started = time.perf_counter()
    try:
        return args.run(args, parser)
    except (OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
