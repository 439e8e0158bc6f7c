#!/usr/bin/env python3
"""Benchmark of the cluster-presents CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

One run measures one workload in this process: it builds the workload's input
files from the seed, then repeats rounds (every op of the workload once,
through ``cluster_presents.cli.main`` with stdout captured) for about S
seconds, at least three rounds.  The package's ``lru_cache``s are cleared before
each round, so every round starts as cold as a fresh CLI session.  Every
report is checked by the oracles in ``oracles.py``; a run is correct unless an
op fails that the workload marks as a known defect.

Times are in reference seconds.  The host this runs on is shared, and its
speed drifts by up to 1.5x within seconds, so each op is timed between two
runs of a fixed calibration loop and scaled by CAL_REF_S over their mean: the
time the op would take on a host where the loop takes CAL_REF_S.  A change to
the program moves the op and not the loop.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` is the
median over rounds of the sum of a round's op latencies, ``units_per_s`` the
median of a round's units over that sum, and ``setup_s`` the median over
fresh interpreters, each scaled like an op.  With ``--trace 1`` each
round runs every op untraced and traced back to back, and the run reports the
per-layer metrics of the traced runs and ``trace.overhead_ratio``, the traced
wall over the untraced one, minus 1.  The metrics and their units are read
from BENCHMARK.json.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  ``--workload all`` runs every workload in its
own fresh interpreter, adds the ops that show known defects, and prints one
row per workload.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import WrongAnswer
from tracing import Tracer, layer_metrics, package_modules, write_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = "cluster_presents"

OVERHEAD = "trace.overhead_ratio"
SETUP_SAMPLES = 21
MIN_ROUNDS = 3
P90_MIN_OPS = 100
# The calibration loop: CAL_STEPS steps over CAL_SLOTS slots take about
# CAL_REF_S seconds on the reference host (the baseline's environment).
CAL_STEPS, CAL_SLOTS = 40_000, 4096
CAL_REF_S = 0.025

# Interpreter start -> package imported and CLI parser built, as the child
# reports it on the shared monotonic clock.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cluster_presents import cli\n"
    "cli._build_parser()\n"
    "print(time.monotonic())\n"
)


def spec_metrics(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of the "end_to_end" or "per_layer" metrics, as BENCHMARK.json lists them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[kind])


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def measure_setup() -> list[float]:
    """Fresh interpreters importing the package, scaled like the ops; the first fills bytecode caches and is dropped."""
    samples, cals = [], [calibrate()]
    for _ in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout) - start)
        cals.append(calibrate())
    return scaled(samples, cals)[1:]


def lru_caches() -> list:
    caches = {id(v): v for m in package_modules(PACKAGE) for v in vars(m).values()
              if isinstance(v, functools._lru_cache_wrapper)}
    return list(caches.values())


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, with the cyclic collector off.

    The loop does what the program does most (list indexing, small-int
    arithmetic, tuple keys in a dict) and touches nothing of the program, so
    its time follows only the speed the shared host gives this process."""
    gc.disable()
    try:
        start = time.perf_counter()
        slots, seen = list(range(CAL_SLOTS)), {}
        for i in range(CAL_STEPS):
            j = (i * 7919) % CAL_SLOTS
            slots[j] = (slots[j] + i) & 1023
            key = (j & 255, slots[j] & 15)
            seen[key] = seen.get(key, 0) + slots[(j + 1) % CAL_SLOTS]
        sorted(seen.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(times: list[float], cals: list[float]) -> list[float]:
    """Each time in reference seconds: times[i] lies between cals[i] and cals[i + 1]."""
    return [t * 2 * CAL_REF_S / (before + after) for t, before, after in zip(times, cals, cals[1:])]


def run_op(cli, op) -> tuple[float, float, int, tuple[str, str] | None]:
    """(start, end, units, failure); failure is None or (kind, why).

    The JSON report is checked whatever the exit code: a verdict of "fail" or
    "overflow" comes with exit 1, and the oracle rejects it as kind "wrong".
    Kind "error" is an op that printed no report, or exited non-zero with a
    report the oracle accepts."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return start, end, 0, ("error", f"exit {code}, no report: {err.getvalue().strip()[-300:]}")
    try:
        units = op.check(report)
    except (WrongAnswer, AttributeError, LookupError, TypeError) as exc:  # or a report of another shape
        return start, end, 0, ("wrong", f"exit {code}: {exc}")
    if code != 0:
        return start, end, 0, ("error", f"exit {code} with a passing report")
    return start, end, units, None


def failures_of(ops, runs) -> list[dict]:
    return [{"op": index, "argv": " ".join(op.argv)[:120], "kind": run[3][0], "why": run[3][1],
             "known_defect": op.known_defect}
            for index, (op, run) in enumerate(zip(ops, runs)) if run[3]]


def clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def repeat(one_round, seconds: float, min_rounds: int) -> list[dict]:
    """Rounds until the next one would end after `seconds`, and at least `min_rounds`."""
    rounds, lengths = [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(one_round())
        lengths.append(time.perf_counter() - start)
        if len(rounds) >= min_rounds and time.perf_counter() - began + statistics.median(lengths) > seconds:
            return rounds


def plain_round(cli, ops, caches) -> dict:
    """Every op once after clearing the caches, with a calibration before each op and after the last.

    "latencies" are in reference seconds, "raw" as the clock read them."""
    clear(caches)
    cals, runs = [calibrate()], []
    for op in ops:
        runs.append(run_op(cli, op))
        cals.append(calibrate())
    raw = [end - start for start, end, _, _ in runs]
    return {"latencies": scaled(raw, cals), "raw": raw, "cal_s": statistics.median(cals),
            "units": sum(units for _, _, units, _ in runs), "failures": failures_of(ops, runs)}


def traced_round(cli, ops, caches, tracer) -> dict:
    """Every op twice, untraced and traced back to back in alternating order.

    The caches are cleared before each run, so both runs of an op start from
    the same cold state on the same stretch of machine time.  The spans are
    those of the traced runs."""
    plain, traced = [], []
    for index, op in enumerate(ops):
        tracer.op = index
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            clear(caches)
            if not with_trace:
                plain.append(run_op(cli, op))
                continue
            tracer.install()
            try:
                traced.append(run_op(cli, op))
            finally:
                tracer.uninstall()
    return {"plain": [end - start for start, end, _, _ in plain],
            "traced": [end - start for start, end, _, _ in traced],
            "latencies": [end - start for start, end, _, _ in plain + traced],
            "failures": failures_of(ops, plain) + failures_of(ops, traced),
            "spans": tracer.take()}


def least_wall(rounds: list[dict], key: str) -> float:
    """Sum over ops of each op's least latency across the rounds, as the clock read them.

    Contention on the shared machine only ever adds time, so this compares the
    untraced and traced runs of the same ops without the slow stretches."""
    return sum(min(op) for op in zip(*(r[key] for r in rounds)))


def spread(values: list[float]) -> str:
    """Quartiles and the sample count of a metric's samples, as the rows print them."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"


def end_to_end(rounds: list[dict], setups: list[float]) -> tuple[dict[str, float], dict[str, list[float]]]:
    """The end-to-end metrics of a run, and the samples the row prints beside them.

    wall_s is the median over rounds of a round's ops' latencies summed."""
    walls = [sum(r["latencies"]) for r in rounds]
    rates = [r["units"] / wall for r, wall in zip(rounds, walls)]
    latencies_ms = sorted(1000 * t for r in rounds for t in r["latencies"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(latencies_ms),
    }
    samples = {"setup_s": setups, "wall_s": walls, "units_per_s": rates,
               "peak_rss_mb": [values["peak_rss_mb"]], "op_p50_ms": latencies_ms}
    return values, samples


def row_text(name: str, unit: str, metrics, values: dict, samples: dict, rounds: list[dict]) -> str:
    """One row: each metric's value with the quartiles and count of its samples.

    op_p50_ms, op_p90_ms and ops_failed_ratio are printed here but not gated:
    op latencies are multimodal within a round and 0 failures is the norm."""
    parts = [f"row {name}"]
    for metric, metric_unit in metrics + (("op_p50_ms", "ms"),):
        per_round = " of rounds" if metric in ("wall_s", "units_per_s") else ""
        parts.append(f"{metric}={values[metric]:.6g} {metric_unit} {spread(samples[metric])}{per_round}")
    ops_ms = samples["op_p50_ms"]
    if len(ops_ms) >= P90_MIN_OPS:
        parts.append(f"op_p90_ms={statistics.quantiles(ops_ms, n=10)[-1]:.6g} ms [n={len(ops_ms)}]")
    else:
        parts.append(f"op_p90_ms=n/a [n={len(ops_ms)} < {P90_MIN_OPS} ops]")
    failed = sum(len(r["failures"]) for r in rounds)
    parts.append(f"ops_failed_ratio={failed / len(ops_ms):.6g} ratio [{failed}/{len(ops_ms)}]")
    parts.append(f"unit={unit}")
    parts.append(f"raw_wall_s={statistics.median(sum(r['raw']) for r in rounds):.6g} s "
                 f"cal_s={statistics.median(r['cal_s'] for r in rounds):.6g} s [reference {CAL_REF_S} s]")
    return "  ".join(parts)


def outcome(rounds: list[dict]) -> dict:
    """correct, attempted and failed of a run: correct unless an op failed that is not a known defect."""
    failures = [f for r in rounds for f in r["failures"]]
    return {
        "correct": all(f["known_defect"] for f in failures),
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": len(failures),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import cluster_presents
    from cluster_presents import cli

    if Path(cluster_presents.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {cluster_presents.__file__}, not the checkout's {SRC / PACKAGE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.build(args.seed, workdir, args.with_defects)
        caches = lru_caches()
        print("env " + json.dumps(environment(args.seed)))
        if not args.trace:
            setups = measure_setup()
            rounds = repeat(lambda: plain_round(cli, ops, caches), args.seconds, MIN_ROUNDS)
            values, samples = end_to_end(rounds, setups)
            gated = spec_metrics("end_to_end")
            print(row_text(workload.name, workload.unit, gated, values, samples, rounds))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in gated}
        else:
            tracer = Tracer(PACKAGE)
            rounds = repeat(lambda: traced_round(cli, ops, caches, tracer), args.seconds, 1)
            per_layer = spec_metrics("per_layer")
            names = [name for name, _ in per_layer if name != OVERHEAD]
            per_round = [layer_metrics(r["spans"], names) for r in rounds]
            values = {name: statistics.median(m[name] for m in per_round) for name in names}
            plain_wall, traced_wall = least_wall(rounds, "plain"), least_wall(rounds, "traced")
            values[OVERHEAD] = traced_wall / plain_wall - 1
            spans_path = OUT / f"spans-{workload.name}.jsonl"
            write_spans(spans_path, rounds[0]["spans"])
            print(f"trace untraced_wall_s={plain_wall:.6g} traced_wall_s={traced_wall:.6g} "
                  f"rounds={len(rounds)} spans={spans_path.relative_to(HERE.parent)}")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in [f for r in rounds for f in r["failures"]][:10]:
        print("failed " + json.dumps(failure))
    print(json.dumps({**outcome(rounds), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one row per workload."""
    env = environment(args.seed)
    print("env " + json.dumps(env))
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--with-defects"]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}: {done.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"env": env, "trace": args.trace, "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--with-defects", action="store_true",
                        help="add the ops that show known defects (set by --workload all)")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
