"""The benchmark's workloads, their output checks and the layer measurements.

Every workload integrates a band-limited `random_solenoidal` initial
condition drawn from the benchmark's seed, so runs stay smooth and never blow
up.  The program only ever sees the generated INI configuration files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import json
import os
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from leraydec import cli, config, diagnostics, experiments, fields, filtering, snapshots, solver, spectral, tables

from . import oracle
from .tracing import FFT_MODULES, RunLog, Tracer

# The order sweep and radius sweep of the acceptance suite (criteria 10, 11).
SWEEP_ORDERS = (0, 1, 2, 4, 8)
SWEEP_DELTAS = (0.4, 0.2, 0.1)
PROBE_STEPS = 1  # run length of the sweep/CLI probes made in traced runs
MICRO_REPEATS = 5


@dataclass(frozen=True)
class Scenario:
    n: int
    order: int
    steps: int
    snapshot_every: int
    forcing_amplitude: float = 0.0  # Taylor-Green forcing when nonzero
    delta: float = 0.5
    nu: float = 0.05
    dt: float = 0.01
    band: int = 6

    def config_text(self, seed: int, regularized: bool, out_dir: str) -> str:
        model = (f"kind = leray_deconv\ndelta = {self.delta!r}\norder = {self.order}\n"
                 if regularized else "kind = nse\n")
        forcing = (f"kind = taylor_green\namplitude = {self.forcing_amplitude!r}\n"
                   if self.forcing_amplitude else "kind = zero\n")
        return (
            f"[grid]\nn = {self.n}\n\n[model]\n{model}\n[fluid]\nnu = {self.nu!r}\n\n"
            f"[time]\ndt = {self.dt!r}\nt_end = {self.steps * self.dt!r}\n"
            f"snapshot_every = {self.snapshot_every}\n\n"
            f"[ic]\nkind = random_solenoidal\nseed = {seed}\nband = {self.band}\n\n"
            f"[forcing]\n{forcing}\n[output]\ndir = {out_dir}\n"
        )

    def params(self, seed: int, order: int | None, delta: float | None = None) -> oracle.RunParams:
        """What the oracle should integrate for this scenario at a given order (None: NSE)."""
        return oracle.RunParams(
            n=self.n, order=order, delta=0.0 if order is None else (delta or self.delta),
            nu=self.nu, dt=self.dt, steps=self.steps, seed=seed, band=self.band,
            forcing_amplitude=self.forcing_amplitude,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the operation it repeats: "sweep", "run" or "cli"
    scenario: Scenario
    why: str
    kernel_reps: int  # speed_kernel repetitions, so that it takes about a tenth of an op
    kernel_ref_s: float  # times are rescaled to a machine on which speed_kernel takes this long


WORKLOADS = {w.name: w for w in (
    Workload("sweep-n32", "sweep", Scenario(n=32, order=8, steps=10, snapshot_every=10),
             "order sweep (0,1,2,4,8) and radius sweep on 32^3 through run_study: many short runs, "
             "each paying stepper set-up, reference runs and the unit-cost microbenchmark",
             kernel_reps=100, kernel_ref_s=1.0),
    Workload("rand64-o8", "run", Scenario(n=64, order=8, steps=3, snapshot_every=3, forcing_amplitude=0.5),
             "one forced 64^3 order-8 run: transforms and van Cittert passes on 12.6 MB fields dominate, "
             "set-up is negligible", kernel_reps=6, kernel_ref_s=0.5),
)}


def speed_kernel(n: int, reps: int) -> float:
    """Seconds of a fixed numpy job shaped like the solver's inner loop, on an n^3 grid.

    Fresh arrays, 3-component forward and inverse FFTs and pointwise
    products, as in a right-hand-side evaluation, but the benchmark's own
    code: a change to leraydec cannot make it faster or slower, while a
    slower or faster machine moves it as it moves the program.
    """
    t0 = time.perf_counter()
    u = np.random.default_rng(0).standard_normal((3, n, n, n))
    for _ in range(reps):
        spec = np.fft.fftn(u * 1.0001, axes=(1, 2, 3))
        np.fft.ifftn(spec * spec, axes=(1, 2, 3)).real.sum()
    return time.perf_counter() - t0


class Context:
    """Configuration files and parsed configurations of one scenario and seed."""

    def __init__(self, scenario: Scenario, seed: int, workdir: str, runlog: RunLog):
        self.scenario = scenario
        self.seed = seed
        self.runlog = runlog
        os.makedirs(workdir, exist_ok=True)
        self.model_dir = os.path.join(workdir, "model")
        self.ref_dir = os.path.join(workdir, "ref")
        self.err_path = os.path.join(workdir, "compare.json")
        self.model_path = os.path.join(workdir, "model.cfg")
        self.ref_path = os.path.join(workdir, "ref.cfg")
        for path, regularized, out_dir in ((self.model_path, True, self.model_dir),
                                           (self.ref_path, False, self.ref_dir)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scenario.config_text(seed, regularized, out_dir))
        self.model_cfg = config.parse_config(self.model_path).solver

    def warm_up(self) -> None:
        """One step of the model run, so FFT plans and page faults are paid here."""
        solver.run(replace(self.model_cfg, t_end=self.model_cfg.dt))


@dataclass
class OpOutput:
    samples: list  # (run wall seconds, steps) per solver run
    runs: list  # RunRecords appended during the op
    reports: list = field(default_factory=list)
    codes: list = field(default_factory=list)


def sweep_op(ctx: Context) -> OpOutput:
    start = len(ctx.runlog.runs)
    base, sc = ctx.model_cfg, ctx.scenario
    reports = [
        experiments.run_study(experiments.StudySpec(kind="n_limit", base=base, delta=sc.delta,
                                                    orders=SWEEP_ORDERS)),
        experiments.run_study(experiments.StudySpec(kind="delta_rate", base=base, deltas=SWEEP_DELTAS,
                                                    orders=(0,))),
    ]
    runs = ctx.runlog.runs[start:]
    return OpOutput([(r.seconds, r.steps) for r in runs], runs, reports=reports)


def run_op(ctx: Context) -> OpOutput:
    start = len(ctx.runlog.runs)
    solver.run(ctx.model_cfg)
    runs = ctx.runlog.runs[start:]
    return OpOutput([(r.seconds, r.steps) for r in runs], runs)


def cli_op(ctx: Context) -> OpOutput:
    start = len(ctx.runlog.runs)
    samples, codes = [], []
    for path in (ctx.model_path, ctx.ref_path):
        t0 = time.perf_counter()
        codes.append(cli.main(["run", "--config", path]))
        samples.append((time.perf_counter() - t0, ctx.scenario.steps))
    codes.append(cli.main(["compare", "--model", ctx.model_dir, "--reference", ctx.ref_dir,
                           "--json", ctx.err_path]))
    return OpOutput(samples, ctx.runlog.runs[start:], codes=codes)


OPS = {"sweep": sweep_op, "run": run_op, "cli": cli_op}


def _manifest_problems(out_dir: str) -> list[str]:
    manifest = tables.read_manifest(os.path.join(out_dir, "manifest.json"))
    return [f"{out_dir}/{entry['name']}: digest does not match the manifest"
            for entry in manifest["files"]
            if tables.file_sha256(os.path.join(out_dir, entry["name"])) != entry["sha256"]]


def fingerprint(kind: str, ctx: Context, out: OpOutput) -> tuple[tuple, list[str]]:
    """Cheap, exact summary of an op's outputs, plus problems found on the way.

    Every timed op must reproduce the fingerprint of the op that `verify`
    checked in depth.
    """
    problems = [f"exit code {c}" for c in out.codes if c != 0]
    energies = tuple(r.energy for r in out.runs)
    if kind == "sweep":
        return (energies, tuple(out.reports[0].tables["main"]["l2_final"]),
                tuple(out.reports[1].tables["main"]["l2_final_order_0"])), problems
    if kind == "cli":
        if problems:
            return (energies, tuple(out.codes)), problems
        for d in (ctx.model_dir, ctx.ref_dir):
            problems += _manifest_problems(d)
        with open(ctx.err_path, encoding="utf-8") as fh:
            err = json.load(fh)
        return (energies, tuple(sorted(err.items()))), problems
    return energies, problems


def _read_back(out_dir: str):
    return SimpleNamespace(snapshots=[snapshots.read_snapshot(p)[0]
                                      for p in sorted(glob.glob(os.path.join(out_dir, "*.snap")))])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def verify(kind: str, ctx: Context) -> tuple[tuple | None, list[str]]:
    """Run one more op with terminal states retained and check it in depth."""
    ctx.runlog.retain = True
    try:
        out = OPS[kind](ctx)
    finally:
        ctx.runlog.retain = False
    return check(kind, ctx, out)


def check(kind: str, ctx: Context, out: OpOutput) -> tuple[tuple | None, list[str]]:
    """Fingerprint plus in-depth checks of an op run with terminal states retained.

    Each solver run's terminal state must pass validate_field(solenoidal=True)
    and match the independent oracle (energy and state to 1e-9 relative);
    sweep tables and `compare` output must match distances computed from the
    oracle's or read-back states.
    """
    fp, problems = fingerprint(kind, ctx, out)
    sc, seed = ctx.scenario, ctx.seed
    ref = sc.params(seed, None)
    expected = {  # the runs the scenario prescribes, independent of how the program read its config
        "sweep": [ref, *(sc.params(seed, o) for o in SWEEP_ORDERS),
                  ref, *(sc.params(seed, 0, d) for d in SWEEP_DELTAS)],
        "run": [sc.params(seed, sc.order)],
        "cli": [sc.params(seed, sc.order), ref],
    }[kind]
    ran = [oracle.params_of(rec.config) for rec in out.runs]
    if sorted(map(repr, ran)) != sorted(map(repr, expected)):
        problems.append(f"solver runs {ran} differ from the prescribed {expected}")
    for rec, p in zip(out.runs, ran):
        try:
            spectral.validate_field(rec.terminal, solenoidal=True)
        except ValueError as exc:
            problems.append(f"terminal state invalid: {exc}")
        problems += oracle.mismatch(rec.terminal.coeffs, p)
    if kind == "sweep":
        n_limit, delta_rate = (r.tables["main"] for r in out.reports)
        for order, got in zip(SWEEP_ORDERS, n_limit["l2_final"]):
            if not _close(got, oracle.l2_distance(sc.params(seed, order), ref), 1e-7):
                problems.append(f"n_limit l2_final at order {order} is {got!r}")
        for delta, got in zip(SWEEP_DELTAS, delta_rate["l2_final_order_0"]):
            if not _close(got, oracle.l2_distance(sc.params(seed, 0, delta), ref), 1e-7):
                problems.append(f"delta_rate l2_final at delta {delta} is {got!r}")
    elif kind == "cli" and not any(out.codes):
        model, reference = _read_back(ctx.model_dir), _read_back(ctx.ref_dir)
        expected = dataclasses.asdict(diagnostics.model_error(model, reference))
        with open(ctx.err_path, encoding="utf-8") as fh:
            err = json.load(fh)
        if err != expected:
            problems.append(f"compare wrote {err}, in-process model_error gives {expected}")
        for rec, traj in zip(out.runs, (model, reference)):
            if not np.array_equal(traj.snapshots[-1].coeffs, rec.terminal.coeffs):
                problems.append("last snapshot read back differs from the terminal state")
        if not _close(err["l2_final"], oracle.l2_distance(sc.params(seed, sc.order), ref), 1e-7):
            problems.append(f"compare l2_final {err['l2_final']!r} differs from the reference")
    for rec in out.runs:  # free the retained fields
        rec.config = rec.terminal = None
    oracle.terminal.cache_clear()
    return fp, problems


# ---------------------------------------------------------------------------
# Layer measurements for traced runs.


def _median_ms(func, *args, repeats: int = MICRO_REPEATS) -> float:
    func(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def microbenchmarks(ctx: Context) -> dict:
    """Public layer functions timed on the scenario's own grid, order and inputs."""
    cfg = ctx.model_cfg
    grid, spec = cfg.grid, cfg.filter
    traj = solver.run(replace(cfg, t_end=cfg.dt))
    state = traj.snapshots[0]
    phys = spectral.to_physical(state)
    order0 = replace(spec, order=0)
    van_cittert_ms = _median_ms(filtering.van_cittert, state, spec)
    return {
        "spectral.to_physical_ms": _median_ms(spectral.to_physical, state),
        "spectral.from_physical_ms": _median_ms(spectral.from_physical, grid, phys),
        "spectral.leray_project_ms": _median_ms(spectral.leray_project, state),
        "filtering.van_cittert_ms": van_cittert_ms,
        "filtering.unit_ms": (van_cittert_ms - _median_ms(filtering.van_cittert, state, order0)) / spec.order,
        "filtering.transfer_hn_ms": _median_ms(filtering.transfer_hn, grid.k_mag, spec),
        "fields.ic_ms": _median_ms(fields.evaluate_field, cfg.ic, grid),
        "solver.nonlinear_term_ms": _median_ms(solver.nonlinear_term, state, cfg.model, spec),
        "solver.step_ms": _median_ms(solver.step, state, cfg),
        "diagnostics.energy_record_ms": _median_ms(diagnostics.energy_record, state, cfg.nu, None),
        "diagnostics.model_error_ms": _median_ms(diagnostics.model_error, traj, traj),
    }


def count_probe(ctx: Context, tracer: Tracer) -> dict:
    """Exact per-step counts: one- and two-step runs differ by exactly one step."""
    fft_calls, fft_bytes = [], []
    cfg = ctx.model_cfg
    for steps in (1, 2):
        with tracer.installed(), tracer.op("count") as op_id:
            traj = solver.run(replace(cfg, t_end=steps * cfg.dt))
        ffts = [s for s in tracer.spans if s[4] == op_id and is_fft(s[0])]
        fft_calls.append(len(ffts))
        fft_bytes.append(sum(s[5] for s in ffts))
    st = traj.stats
    return {
        "spectral.fft_calls_per_step": fft_calls[1] - fft_calls[0],
        "spectral.fft_bytes_per_step": fft_bytes[1] - fft_bytes[0],
        "solver.rhs_evals_per_step": st.rhs_evals / st.steps,
        "filtering.applications_per_step": st.filter_applications / st.steps,
    }


def is_fft(span_name: str) -> bool:
    return span_name.startswith(tuple(f"{m}." for m in FFT_MODULES))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def span_metrics(tracer: Tracer, native_kind: str, n: int) -> dict:
    """Per-layer numbers read off the spans of traced ops.

    Per-op sums (FFT and run self time, energy_record time including the
    spectral norms it calls) are medians over the traced ops of the
    workload's own kind.  Study, CLI and I/O calls are medians over every
    span of that name, from the workload's own ops or from a short probe of
    that op kind.
    """
    selfs = tracer.self_times()
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans])
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return dur[by_name.get(name, [])]

    def covered_by_runs(i):
        """Time inside span i spent in solver.run calls below it."""
        total = 0.0
        for j in by_name.get("solver.run", []):
            p = spans[j][3]
            while p > i:
                p = spans[p][3]
            if p == i:
                total += dur[j]
        return total

    def per_native_op(pred, times):
        return _median([sum(times[i] for i in idx if pred(spans[i][0]))
                        for name, idx in tracer.ops().values() if name == native_kind])

    studies = [i for name in ("experiments.run_study.n_limit", "experiments.run_study.delta_rate")
               for i in by_name.get(name, [])]
    cli_runs = by_name.get("cli.cmd_run", [])
    snap_mib = 3 * n**3 * 16 / 2**20  # computed payload size
    write_s = durations("snapshots.write_snapshot")
    return {
        "spectral.fft_self_s": per_native_op(is_fft, selfs),
        "solver.run_self_s": per_native_op(lambda s: s == "solver.run", selfs),
        "diagnostics.energy_record_s": per_native_op(lambda s: s == "diagnostics.energy_record", dur),
        "experiments.study_n_limit_s": _median(durations("experiments.run_study.n_limit")),
        "experiments.study_delta_rate_s": _median(durations("experiments.run_study.delta_rate")),
        "experiments.overhead_s": _median([dur[i] - covered_by_runs(i) for i in studies]),
        "experiments.unit_cost_s": _median(durations("experiments.deconv_unit_cost")),
        "config.parse_ms": 1000.0 * _median(durations("config.parse_config")),
        "snapshots.write_ms": 1000.0 * _median(write_s),
        "snapshots.read_ms": 1000.0 * _median(durations("snapshots.read_snapshot")),
        "snapshots.write_mb_per_s": len(write_s) * snap_mib / write_s.sum() if len(write_s) else float("nan"),
        "tables.diag_csv_ms": 1000.0 * _median(durations("tables.write_diag_csv")),
        "tables.manifest_ms": 1000.0 * _median(durations("tables.write_manifest")),
        "cli.run_s": _median(dur[cli_runs]),
        "cli.compare_s": _median(durations("cli.cmd_compare")),
        "cli.output_s": _median([dur[i] - covered_by_runs(i) for i in cli_runs]),
    }


def bytes_hashed(ctx: Context) -> int:
    """Bytes the two manifests of one CLI op digest."""
    total = 0
    for d in (ctx.model_dir, ctx.ref_dir):
        total += sum(e["bytes"] for e in tables.read_manifest(os.path.join(d, "manifest.json"))["files"])
    return total


@contextlib.contextmanager
def quiet():
    """The CLI prints progress; keep the benchmark's stdout for its result."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        yield
