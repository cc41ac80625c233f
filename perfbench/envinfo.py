"""Environment stamp written beside every benchmark result."""

from __future__ import annotations

import glob
import hashlib
import importlib.metadata
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import MEMORY_VARS, THREAD_VARS


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> list:
    out = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        out.append({key: _read(os.path.join(d, key)) for key in ("level", "type", "size")})
    return out


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "fft_modules_loaded": sorted(m for m in sys.modules
                                     if m.startswith(("numpy.fft.", "scipy.fft", "pyfftw"))),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "memory_vars": {v: os.environ.get(v) for v in MEMORY_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
    }
