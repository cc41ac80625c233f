"""Hand-run mutation check of the fast suite.

Each mutant is one line of src/ changed on purpose.  For each, the script
copies the repository (without .git) into a temporary directory, applies
the mutant there, runs `pytest -m "not slow" -x -q` in the copy, one
mutant at a time, and prints the mutants that no fast test kills.

    python tests/mutants.py                            # every mutant
    python tests/mutants.py -- -k "not bit_identical"  # extra pytest arguments

Pytest does not collect this file; it needs only the standard library and
pytest.  See DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file under src/leraydec, line fragment as written, its mutant)
MUTANTS = {
    "rk_a1": ("solver.py", "_RK_A = (0.0, -5.0 / 9.0,", "_RK_A = (0.0, -5.0 / 8.0,"),
    "rk_a2": ("solver.py", "-153.0 / 128.0)", "-153.0 / 127.0)"),
    "rk_b1": ("solver.py", "15.0 / 16.0,", "15.0 / 17.0,"),
    "adv_index": ("solver.py", "conv += np.multiply(adv_phys[j],", "conv += np.multiply(adv_phys[0],"),
    "pad_conj": ("spectral.py", "np.conjugate(compact[c], out=full[f])", "np.copyto(full[f], compact[c])"),
    "project_no_z": ("spectral.py", "for kj, cj in zip(grid.wavevectors(), c):",
                     "for kj, cj in zip(grid.wavevectors(), c[:2]):"),
    "vc": ("filtering.py", "    for _ in range(order):\n", "    for _ in range(order - 1):\n"),
    "gaps": ("solver.py", "gaps = (_RK_C[1] - _RK_C[0], _RK_C[2] - _RK_C[1],",
             "gaps = (_RK_C[2] - _RK_C[1], _RK_C[1] - _RK_C[0],"),
    "half_band_weight": ("spectral.py", "np.where(self.kz > 0, 2.0, 1.0)", "np.where(self.kz >= 0, 2.0, 1.0)"),
    "omega_sign": ("solver.py", "omega = spectral.cross(self.ik, w, out=c1, scratch=c0[0])",
                   "omega = spectral.cross(self.ik, w, out=c1, scratch=c0[0]); omega[1] *= -1"),
    "pack_conj": ("spectral.py", "np.subtract(imag[c].real, compact[c].imag, out=full[f].imag)",
                  "np.subtract(compact[c].imag, imag[c].real, out=full[f].imag)"),
    "cross_index": ("spectral.py", "enumerate(((1, 2), (2, 0), (0, 1)))", "enumerate(((1, 2), (0, 2), (0, 1)))"),
}


def mutated_copy(name: str, into: Path) -> Path:
    """A copy of the repository under `into` with mutant `name` applied."""
    file, original, mutant = MUTANTS[name]
    copy = into / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    path = copy / "src" / "leraydec" / file
    text = path.read_text()
    if text.count(original) != 1:
        raise SystemExit(f"{name}: {original!r} is not one place in {file}; update the mutant")
    path.write_text(text.replace(original, mutant))
    return copy


def survives(name: str, pytest_args) -> bool:
    """Whether the fast suite passes with mutant `name` applied; an exit
    other than pass or fail (a collection error, say) stops the script."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = mutated_copy(name, Path(tmp))
        t0 = time.perf_counter()
        command = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q", "-p", "no:cacheprovider",
                   *pytest_args]
        result = subprocess.run(command, cwd=copy, capture_output=True, text=True)
        if result.returncode not in (0, 1):
            raise SystemExit(f"{name}: pytest exited {result.returncode}\n{result.stdout[-2000:]}")
        killer = next((line for line in result.stdout.splitlines() if line.startswith("FAILED ")), "")
        verdict = "SURVIVED" if result.returncode == 0 else "killed"
        print(f"{name:18s} {verdict:8s} {time.perf_counter() - t0:6.1f} s  {killer[7:]}", flush=True)
        return result.returncode == 0


def main(argv) -> int:
    pytest_args = argv[argv.index("--") + 1:] if "--" in argv else argv
    survivors = [name for name in MUTANTS if survives(name, pytest_args)]
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
