"""Benchmark of leraydec: ms per RK3 step, sweep wall time and memory.

    python3 perfbench/run.py --workload sweep-n32 --seed 1 --seconds 35 --trace 0

Run it from the root of a leraydec checkout: the program is imported from
./src and nowhere else.  A run sets up (timed in separate processes), repeats
the workload's operation for --seconds, checks every output, and prints as
its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or, from a separate traced run, the
per-layer metrics (--trace 1).  Operation and step times are rescaled to a
reference machine speed, measured by a fixed numpy kernel timed beside every
operation (workloads.speed_kernel; see README.md).  The line before the result
carries the environment, sample counts and any problems; the full record, with
spans when traced, is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "spectral.to_physical_ms": "ms",
    "spectral.from_physical_ms": "ms",
    "spectral.leray_project_ms": "ms",
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_bytes_per_step": "B",
    "spectral.fft_self_s": "s",
    "filtering.van_cittert_ms": "ms",
    "filtering.unit_ms": "ms",
    "filtering.transfer_hn_ms": "ms",
    "filtering.applications_per_step": "count",
    "filtering.deconv_share": "ratio",
    "fields.ic_ms": "ms",
    "solver.nonlinear_term_ms": "ms",
    "solver.step_ms": "ms",
    "solver.rhs_evals_per_step": "count",
    "solver.run_self_s": "s",
    "diagnostics.energy_record_ms": "ms",
    "diagnostics.energy_record_s": "s",
    "diagnostics.model_error_ms": "ms",
    "experiments.study_n_limit_s": "s",
    "experiments.study_delta_rate_s": "s",
    "experiments.overhead_s": "s",
    "experiments.unit_cost_s": "s",
    "config.parse_ms": "ms",
    "snapshots.write_ms": "ms",
    "snapshots.read_ms": "ms",
    "snapshots.write_mb_per_s": "MiB/s",
    "snapshots.retained_mb": "MiB",
    "tables.diag_csv_ms": "ms",
    "tables.manifest_ms": "ms",
    "tables.bytes_hashed": "B",
    "cli.run_s": "s",
    "cli.compare_s": "s",
    "cli.output_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="sweep-n32 or rand64-o8")
    p.add_argument("--seed", type=int, required=True, help="seed of the random initial condition")
    p.add_argument("--seconds", type=float, default=35.0, help="how long to repeat the operation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    wall: float
    traced: bool
    samples: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    fingerprint: object = None
    problems: list = field(default_factory=list)
    op_id: int = -1  # traced ops: the tracer's op id
    n_runs: int = 0  # solver.run calls RunLog saw during the op


def timed_op(wl, kind, ctx, tracer, check=None) -> Op:
    """One operation, timed; its outputs are then fingerprinted (or checked in depth)."""
    op_id, first_run = -1, len(ctx.runlog.runs)
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.op(kind) if tracer else contextlib.nullcontext(-1) as op_id:
                out = wl.OPS[kind](ctx)
            exc = None
        except Exception as err:  # an operation that raises counts as failed; keep measuring
            exc = err
        wall = time.perf_counter() - t0
    op = Op(wall, tracer is not None, op_id=op_id, n_runs=len(ctx.runlog.runs) - first_run)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)
        op.problems.append(repr(exc))
        return op
    op.fingerprint, op.problems = (check or wl.fingerprint)(kind, ctx, out)
    op.samples, op.runs = out.samples, out.runs
    return op


def rescaled(ops: list[Op], kernel_s: list[float], kernel_ref_s: float) -> tuple[list, float]:
    """At the reference machine speed: the walls (s) of the ops that passed, and ms per step.

    kernel_s[i] and kernel_s[i + 1] are the speed kernels timed just before
    and just after ops[i]; the op is scaled by kernel_ref_s over their mean.
    Milliseconds per step are the ops' solver-run time over their steps.
    """
    walls, run_s, steps = [], 0.0, 0
    for op, before, after in zip(ops, kernel_s, kernel_s[1:]):
        if op.problems:
            continue
        factor = kernel_ref_s / ((before + after) / 2)
        walls.append(op.wall * factor)
        run_s += factor * sum(sec for sec, _ in op.samples)
        steps += sum(n for _, n in op.samples)
    return walls, 1000.0 * run_s / steps if steps else math.nan


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready (imports, configs, seeded inputs, warm-up), per probe process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return times


def measure(args, rss_import: float) -> tuple[dict, dict]:
    # Imported here: main() has to put ./src on the path and pin the environment first.
    from perfbench import tracing
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    kind, sc = workload.kind, workload.scenario
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    runlog = tracing.RunLog()
    tracer = tracing.Tracer() if args.trace else None
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    ops: list[Op] = []  # the workload's own operation, repeated for --seconds
    probes: list[Op] = []  # traced runs only: the other op kinds, briefly, on this scenario
    kernel_s: list[float] = []  # untraced runs: speed_kernel before the first op and after each op
    layer: dict = {}
    try:
        if not args.trace:
            detail["setup_samples"] = setup_seconds(args.workload, args.seed)
        ctx = wl.Context(sc, args.seed, str(workdir / "main"), runlog)
        ctx.warm_up()
        with wl.quiet(), runlog.installed():
            deadline = time.perf_counter() + args.seconds
            if not args.trace:
                kernel_s.append(wl.speed_kernel(sc.n, workload.kernel_reps))
            while len(ops) < 1 + args.trace or time.perf_counter() < deadline:
                traced = bool(args.trace) and len(ops) % 2 == 1
                ops.append(timed_op(wl, kind, ctx, tracer if traced else None))
                if not args.trace:
                    kernel_s.append(wl.speed_kernel(sc.n, workload.kernel_reps))
            peak_mib = maxrss_mib()
            if args.trace:
                cli_ctx = ctx
                for probe_kind in ("sweep", "cli"):
                    if probe_kind != kind:
                        pctx = wl.Context(replace(sc, steps=wl.PROBE_STEPS), args.seed,
                                          str(workdir / f"probe-{probe_kind}"), runlog)
                        runlog.retain = True  # probes are checked in depth as they run
                        probes.append(timed_op(wl, probe_kind, pctx, tracer, check=wl.check))
                        runlog.retain = False
                        cli_ctx = pctx if probe_kind == "cli" else cli_ctx
                layer.update(wl.count_probe(ctx, tracer))
                layer.update(wl.microbenchmarks(ctx))
                layer["tables.bytes_hashed"] = wl.bytes_hashed(cli_ctx)
            try:
                verified, verify_problems = wl.verify(kind, ctx)
            except Exception as exc:  # a crash in the checks fails every operation
                traceback.print_exc(file=sys.stderr)
                verified, verify_problems = None, [f"verification raised {exc!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(verify_problems)
    mismatched = sum(1 for op in ops if op.fingerprint != verified)
    if mismatched:
        problems.append(f"{mismatched} operations' outputs differ from the verified operation's")
    failed = sum(1 for op in ops if op.problems or op.fingerprint != verified or verify_problems)
    failed += sum(1 for op in probes if op.problems)
    for op in ops + probes:
        problems += op.problems

    untraced = [op for op in ops if not op.traced and not op.problems]
    walls = [op.wall for op in untraced]
    detail.update(ops=len(ops), op_walls=walls, step_samples=sum(len(op.samples) for op in untraced))
    if not args.trace:
        ref_walls, ref_step_ms = rescaled(ops, kernel_s, workload.kernel_ref_s)
        _, raw_step_ms = rescaled(ops, [1.0] * len(kernel_s), 1.0)  # factor 1: as measured
        detail.update(kernel_s=kernel_s, raw_step_ms=raw_step_ms,
                      raw_wall_s=statistics.fmean(walls) if walls else math.nan)
        metrics = {
            "setup_s": statistics.median(detail["setup_samples"]),
            "wall_s": statistics.fmean(ref_walls) if ref_walls else math.nan,
            "step_ms": ref_step_ms,
            "peak_rss_mb": peak_mib - rss_import,
        }
    else:
        untraced_runs = [r for op in untraced for r in op.runs]
        traced_walls = [op.wall for op in ops if op.traced]
        detail["traced_op_walls"] = traced_walls
        detail["trace_check"] = tracer.check({op.op_id: (op.wall, op.n_runs)
                                              for op in ops + probes if op.traced})
        problems += detail["trace_check"]
        fftless = [op_id for op_id, (_, idx) in tracer.ops().items()
                   if not any(wl.is_fft(tracer.spans[i][0]) for i in idx)]
        if fftless:  # an FFT the wrappers missed would read as a large gain
            problems.append(f"traced ops {fftless} recorded no FFT call")
        metrics = layer
        metrics.update(wl.span_metrics(tracer, kind, sc.n))
        run_wall = sum(r.wall_seconds for r in untraced_runs)
        metrics["filtering.deconv_share"] = (sum(r.deconv_seconds for r in untraced_runs) / run_wall
                                             if run_wall else math.nan)
        metrics["snapshots.retained_mb"] = max((r.snapshot_bytes for op in ops for r in op.runs),
                                               default=math.nan) / 2**20
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls)
                                       if traced_walls and walls else math.nan)

    units = PER_LAYER if args.trace else END_TO_END
    for name in units:
        if not math.isfinite(metrics.get(name, math.nan)):
            problems.append(f"metric {name} was not measured")
            metrics[name] = 0.0
    detail["problems"] = problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops) + len(probes),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    if tracer is not None:
        detail["spans"] = tracer.dump()
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import MEMORY_VARS, THREAD_VARS

    os.environ.update(MEMORY_VARS)  # before numpy loads; set-up probes inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "leraydec" / "__init__.py").is_file():
        print(f"perfbench: no leraydec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leraydec

    if not Path(leraydec.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: leraydec imported from {leraydec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rss_import = maxrss_mib()
    from perfbench import envinfo, tracing
    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = WORK_DIR / f"setup-{os.getpid()}"
        try:
            wl.Context(wl.WORKLOADS[args.workload].scenario, args.seed, str(workdir), tracing.RunLog()).warm_up()
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, detail = measure(args, rss_import)
    detail["env"] = envinfo.environment(ROOT, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k != "spans"}
    print(json.dumps({"detail": summary, "record": str(record.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
