"""Benchmark of the eprbm pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and README.md for why each was chosen):

- ``train_default``: default-hyperparameter PCD training at a shortened
  epoch count on a 100,000-trial standard-angle dataset, in process.
- ``cli_pipeline``: fresh-process ``eprbm simulate`` (1,000,000 trials,
  seeded non-default angles), ``eval --data --out`` and ``diagnose --out``
  on the bundled reference model. Run by hand only; it is too noisy for the
  bounds in BENCHMARK.json (see README.md).
- ``exact_sweep``: full exact diagnosis (enumeration, correlations,
  locality, measurement independence) of a seeded population of 4x4 models
  with parameter scales from 0.01 to 100.

The run builds its inputs from ``--seed``, times ``setup`` several times,
then runs the workload's closed loop for ``--seconds`` and checks every
operation's output. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it runs the loop untraced and then traced (the difference
is the tracing overhead), replays every layer's public functions at the
workload's shapes, and reports the per-layer metrics. The last line of
standard output is the JSON result; a fuller record (metric quartiles and
sample counts, failure shares, machine fingerprint, per-layer self times)
goes to ``perfbench/results/``, and spans of a traced run next to it.

``--smoke`` shrinks every input, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Limit BLAS to the cores this process may run on; must precede numpy."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _openblas_runtime_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def fingerprint(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"vendor": blas.get("name"), "version": blas.get("version")},
        "scipy_blas": {"vendor": scipy_blas.get("name"), "version": scipy_blas.get("version")},
        "blas_threads": {"pinned": blas_threads, "numpy_runtime": _openblas_runtime_threads()},
    }


def summary(samples, factor: float = 1.0) -> dict:
    """Median, quartiles, 90th percentile, mean and sample count.

    Median and quartiles are pytest-benchmark's definitions.
    """
    import numpy as np
    from pytest_benchmark.stats import Stats

    stats = Stats()
    for value in samples:
        stats.update(value * factor)
    return {"median": stats.median, "q1": stats.q1, "q3": stats.q3,
            "p90": float(np.percentile(stats.data, 90)), "mean": stats.mean,
            "n": stats.rounds}


class Intervals:
    """Start and end times of timed calls: all of them up to ``CAPACITY``,
    then a uniform sample of that size (reservoir sampling, seeded).

    ``exact_sweep`` times ~3x10^5 operations a run, and the peak memory is
    measured after; a bounded log keeps it from growing with the number of
    operations a run completes.
    """

    CAPACITY = 1 << 16

    def __init__(self, seed: int):
        self.starts, self.ends = array("d"), array("d")
        self.count = 0
        self.rng = random.Random(seed)

    def add(self, start: float, end: float) -> None:
        self.count += 1
        if len(self.ends) < self.CAPACITY:
            self.starts.append(start)
            self.ends.append(end)
            return
        j = self.rng.randrange(self.count)
        if j < self.CAPACITY:
            self.starts[j], self.ends[j] = start, end

    def __len__(self) -> int:
        return self.count


def measure(workload, deadline: float, tracer, outcome, speed, ops: Intervals) -> None:
    """Closed loop: run operations until ``deadline``, recording each interval."""
    from pytest_benchmark.timers import default_timer

    while not ops or default_timer() < deadline:
        speed.sample_if_due()
        i = len(ops)
        op = f"op{i}"
        with tracer.span(f"bench.{workload.name}", op):
            started = default_timer()
            result = workload.operation(i, op, tracer)
            ops.add(started, default_timer())
        workload.verify(result, outcome)
    speed.sample_if_due()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def run(args, blas_threads: int) -> tuple[dict, dict]:
    import numpy as np
    from pytest_benchmark.timers import default_timer

    import calibration
    import replay
    import tracing
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint(blas_threads),
    }
    outcome = workloads.Outcome()
    speed = calibration.Speed()
    ops, setups = Intervals(args.seed), Intervals(args.seed)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

        def timed_setup() -> float:
            speed.sample()
            started = default_timer()
            workload.setup()
            setups.add(started, default_timer())
            speed.sample()
            return setups.ends[-1] - started

        # the extreme-scale models overflow on purpose; their NaNs are counted
        with np.errstate(all="ignore"):
            if hasattr(workload, "check_inputs"):
                # untimed: the failures of a fixed input set depend on the seed alone
                workload.setup()
                workload.check_inputs(outcome)
            if not args.trace:
                # set-up is repeated at evenly spaced points of the run, so its
                # median does not rest on the machine's state at one instant
                start = default_timer()
                for chunk in range(sizes.setup_repeats):
                    start += timed_setup()
                    deadline = start + args.seconds * (chunk + 1) / sizes.setup_repeats
                    measure(workload, deadline, tracing.NullTracer(), outcome, speed, ops)
            else:
                timed_setup()
                half = args.seconds / 2
                measure(workload, default_timer() + half, tracing.NullTracer(), outcome,
                        speed, ops)
                tracer, traced = tracing.Tracer(), Intervals(args.seed)
                workload.counts.clear()
                measure(workload, default_timer() + half, tracer, outcome, speed, traced)
                loop_spans = len(tracer.spans)
                model, trials, angles = workload.replay_inputs()
                replayed, csv_bytes = replay.replay_layers(
                    model, trials, angles, args.seed, workdir / "replay",
                    tracer, speed, sizes.replay_budget_s, sizes.replay_min_rounds,
                    workloads.cli_env(),
                )
        rss = peak_rss_mb(workload.program_in_children)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def walls(intervals: Intervals) -> list[float]:
        return [end - start for start, end in zip(intervals.starts, intervals.ends)]

    def scaled(intervals: Intervals) -> list[float]:
        # The CLI commands' wall time moves with the machine's speed less
        # than the kernel does (measured 0.8x against 0.6x), so scaling
        # would over-correct it; commands in child processes keep wall time.
        if workload.program_in_children:
            return walls(intervals)
        return [speed.scaled(start, end, end - start)
                for start, end in zip(intervals.starts, intervals.ends)]

    durations = scaled(ops)
    op = summary(durations, 1e3)
    setup = summary(scaled(setups))
    record["outcome"] = outcome.to_dict()
    record["operations_timed"] = len(ops)
    record["operation_ms"] = op
    record["operation_wall_ms"] = summary(walls(ops), 1e3)
    record["setup_wall_s"] = summary(walls(setups))
    record["calibration"] = {
        "reference_kernel_ms": calibration.REFERENCE_S * 1e3,
        "kernel_ms": summary(speed.kernel, 1e3),
    }
    if hasattr(workload, "walls"):
        n = len(ops)  # walls of the untraced loop come first
        record["command_wall_s"] = {c: summary(w[:n]) for c, w in workload.walls.items()}

    if not args.trace:
        metrics = {
            "op_p50_ms": ({**op, "value": op["median"]}, "ms"),
            "op_p90_ms": ({**op, "value": op["p90"]}, "ms"),
            "ops_per_s": ({
                "value": len(durations) / sum(durations),
                "median": 1e3 / op["median"], "q1": 1e3 / op["q3"], "q3": 1e3 / op["q1"],
                "n": op["n"],
            }, "1/s"),
            "setup_s": ({**setup, "value": setup["median"]}, "s"),
            "peak_rss_mb": ({"value": rss, "median": rss, "q1": rss, "q3": rss, "n": 1}, "MiB"),
        }
    else:
        traced_op = summary(scaled(traced), 1e3)
        loop = tracer.spans[:loop_spans]
        replay_spans = tracer.spans[loop_spans:]
        record["tracing"] = {
            "traced_operation_ms": traced_op,
            "overhead_ms": traced_op["median"] - op["median"],
            "overhead_pct": 100.0 * (traced_op["median"] - op["median"]) / op["median"],
            "self_time_s": {
                "loop": tracing.self_times(loop),
                "replayed": tracing.self_times(replay_spans),
            },
            "spans": len(tracer.spans),
        }
        metrics = {}
        for name, (call, unit, factor) in replay.TIMINGS.items():
            s = summary(replayed[call].data, factor)
            metrics[name] = ({**s, "value": s["median"]}, unit)
        for name in workloads.COUNTS:
            metrics[name] = ({"value": workload.counts[name], "n": 1}, "count")
        metrics["epr.csv_bytes"] = ({"value": csv_bytes, "n": 1}, "count")
        overhead = record["tracing"]["overhead_pct"]
        metrics["trace.overhead_pct"] = ({"value": overhead, "n": traced_op["n"]}, "%")
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        record["tracing"]["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = {name: {**s, "unit": unit} for name, (s, unit) in metrics.items()}
    result = {
        # the documented defects count as failures but not as a wrong run
        "correct": outcome.unexpected == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": s["value"], "unit": unit} for name, (s, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_default", "cli_pipeline", "exact_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "eprbm" / "__init__.py").is_file():
        print(f"error: no eprbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run(args, blas_threads)

    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
        fh.write("\n")
    o = record["outcome"]
    print(f"{args.workload} seed {args.seed}: {o['failed']} of {o['attempted']} operations "
          f"failed ({o['failed_known_defect']} known defect), record in {out.relative_to(ROOT)}")
    for check, f in o["by_check"].items():
        print(f"  failed {check}: {f['failed']} of {f['of']}")
    for name, m in record["metrics"].items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}  (n={m['n']}{spread})")
    if args.trace:
        t = record["tracing"]
        print(f"  tracing overhead {t['overhead_ms']:.4g} ms per operation "
              f"({t['overhead_pct']:.3g}%)")
        for group, times in t["self_time_s"].items():
            print(f"  self time, {group}: "
                  + ", ".join(f"{layer} {s:.4g} s" for layer, s in times.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
