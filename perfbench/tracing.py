"""Spans and run timings recorded from outside the program.

The benchmark never edits leraydec.  It replaces, for the length of a traced
call, the module attributes the program looks up at call time (for example
`leraydec.solver.run`, `leraydec.cli.write_snapshot`, `numpy.fft.ifftn`) with
thin wrappers, and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from dataclasses import dataclass, field

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
FFT_MODULES = ("numpy.fft", "scipy.fft")


def leraydec_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "leraydec" or name.startswith("leraydec."))]


class Patcher:
    """Replaces module attributes and restores the originals."""

    def __init__(self):
        self._saved = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def replace_everywhere(self, old, new, modules) -> None:
        """Point every module attribute that holds `old` at `new`."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is old:
                    self.set(module, name, new)

    def restore(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


class Tracer:
    """Spans with name, start, end, parent index, op id and (for FFTs) bytes.

    Spans stay in memory; `self_times()`, `check()` and `dump()` read them
    at the end.  A root span opened by `op()` groups everything one benchmark
    operation called, so time not covered by a wrapped name shows up as the
    self time of its parent instead of being lost.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, nbytes]
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patcher = Patcher()

    def _wrap(self, func, name: str, fft: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name
            if name == "experiments.run_study" and args:  # study time is reported per study kind
                label = f"{name}.{args[0].kind}"
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if fft:
                span[5] = getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public leraydec function and the FFT entry points.

        Functions are found by identity, so a leraydec module that binds one
        under another name (`from scipy.fft import rfftn`, `_run = run`) calls
        the wrapper too.
        """
        modules = leraydec_modules()
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (not isinstance(value, types.FunctionType) or value.__name__.startswith("_")
                        or not value.__module__.startswith("leraydec")):
                    continue
                if value not in wrapped:
                    short = value.__module__.removeprefix("leraydec.")
                    wrapped[value] = self._wrap(value, f"{short}.{value.__name__}")
                self._patcher.set(module, attr, wrapped[value])
        for mod_name in FFT_MODULES:
            fft_mod = sys.modules.get(mod_name)
            for attr in FFT_NAMES if fft_mod is not None else ():
                func = getattr(fft_mod, attr, None)
                if func is not None:
                    wrapper = self._wrap(func, f"{mod_name}.{attr}", fft=True)
                    self._patcher.set(fft_mod, attr, wrapper)
                    self._patcher.replace_everywhere(func, wrapper, modules)
        try:
            yield self
        finally:
            self._patcher.restore()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; yields the op id."""
        self._op = self._ops
        self._ops += 1
        span = [name, 0.0, 0.0, -1, self._op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield self._op
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        out = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                out[s[3]] -= d
        return out

    def ops(self) -> dict:
        """op id -> (root name, list of span indices)."""
        out: dict = {}
        for i, s in enumerate(self.spans):
            if s[3] < 0:
                out[s[4]] = (s[0], [])
            out[s[4]][1].append(i)
        return out

    def check(self, expected: dict, rel_tol: float = 0.01) -> list[str]:
        """Compare each traced op with what was measured outside the tracer.

        `expected` maps op id to (wall seconds timed around the op, number of
        solver.run calls RunLog saw in it).  The root span must match that
        wall within `rel_tol`, and every solver.run call must have a span: a
        call that went round the wrappers would hide its time in its caller's
        self time.  (Self times add up to the root by construction.)
        """
        problems = []
        ops = self.ops()
        for op_id, (wall, n_runs) in expected.items():
            name, idx = ops.get(op_id, ("?", []))
            if not idx:
                problems.append(f"op {op_id}: no spans recorded")
                continue
            root = self.spans[idx[0]][2] - self.spans[idx[0]][1]
            if abs(root - wall) > rel_tol * wall:
                problems.append(f"op {op_id} ({name}): root span {root:.6f}s, op wall {wall:.6f}s")
            spans = sum(1 for i in idx if self.spans[i][0] == "solver.run")
            if spans != n_runs:
                problems.append(f"op {op_id} ({name}): {spans} solver.run spans for {n_runs} runs")
        return problems

    def dump(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "bytes": s[5]}
                for s in self.spans]


@dataclass
class RunRecord:
    """One call of solver.run as seen from outside."""

    seconds: float
    steps: int
    energy: float
    deconv_seconds: float
    wall_seconds: float
    snapshot_bytes: int
    config: object = None
    terminal: object = None


@dataclass
class RunLog:
    """Times every call of leraydec.solver.run, wherever the program calls it.

    With `retain` set, the run's configuration and terminal state are kept
    for the output checks.
    """

    runs: list = field(default_factory=list)
    retain: bool = False

    @contextlib.contextmanager
    def installed(self):
        solver = sys.modules["leraydec.solver"]
        inner = solver.run
        log = self

        @functools.wraps(inner)
        def run(config):
            t0 = time.perf_counter()
            traj = inner(config)
            seconds = time.perf_counter() - t0
            st = traj.stats
            log.runs.append(RunRecord(
                seconds=seconds,
                steps=st.steps,
                energy=traj.records[-1].energy,
                deconv_seconds=st.deconv_seconds,
                wall_seconds=st.wall_seconds,
                snapshot_bytes=sum(s.coeffs.nbytes for s in traj.snapshots),
                config=config if log.retain else None,
                terminal=traj.terminal if log.retain else None,
            ))
            return traj

        patcher = Patcher()
        patcher.replace_everywhere(inner, run, leraydec_modules())
        try:
            yield self
        finally:
            patcher.restore()
