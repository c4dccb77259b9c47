"""Check that the working tree's src/ writes the same output bytes as a git revision's.

Usage: python3 tools/same_outputs.py [REV]   (REV defaults to HEAD)

REV's src/ is exported with ``git archive`` into a temporary directory, so
no worktree is made and .git is left as it is.  Each command below runs as
``python3 -m swan_aircomp ... --quiet`` once with PYTHONPATH set to REV's
src/ and once with the working tree's, BLAS pinned to one thread.  Their
results.csv, aggregates.csv, metadata.json and plot.svg are compared byte
for byte, and one line per command names the first file and line that
differ.  The exit code is 0 only when every command matches.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ("results.csv", "aggregates.csv", "metadata.json", "plot.svg")
COMMANDS = (
    "sweep-m --drops 2 --q 300",
    "sweep-m-span --drops 2 --kappa 0,0.08 --q 300",
    "sweep-k --drops 2 --m 5 --kappa 0,0.08 --q 300",
    "sweep-k --drops 2 --design-kappa 0 --kappa 0,0.08 --q 300 --restarts 2",
    "convergence --drops 2 --q 300",
    "oracle-check --log-y",
    "oracle-check --drops 40 --kappa 0,0.08,1",
    "sweep-m --drops 3 --sweep 2,5,10 --seg-length 0.0056 --q 200 --restarts 3",
    "sweep-m --drops 3 --sweep 3,6 --seg-length 0.0054 --q 50 --restarts 3 --kappa 0,1",
    "oracle-check --drops 30 --seg-length 0.006 --q 25",
)
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run(src: Path, command: str, out: Path) -> None:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "swan_aircomp", *command.split(), "--quiet", "--out-dir", str(out)]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)


def first_difference(old: Path, new: Path) -> str | None:
    """The first output file and line where ``new`` differs from ``old``, or None."""
    for name in FILES:
        a, b = old / name, new / name
        if a.exists() != b.exists():
            return f"{name} written by one side only"
        if not a.exists() or a.read_bytes() == b.read_bytes():
            continue
        a_lines, b_lines = a.read_bytes().splitlines(True), b.read_bytes().splitlines(True)
        pairs = enumerate(zip(a_lines, b_lines), 1)
        line = next((i for i, (x, y) in pairs if x != y), min(len(a_lines), len(b_lines)) + 1)
        return f"{name} line {line}"
    return None


def main(rev: str) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp / "rev")
        failed = 0
        for i, command in enumerate(COMMANDS):
            old, new = tmp / f"{i}-rev", tmp / f"{i}-tree"
            run(tmp / "rev" / "src", command, old)
            run(ROOT / "src", command, new)
            diff = first_difference(old, new)
            failed += diff is not None
            print(f"{'differs' if diff else 'same   '}  {command}" + (f"  ({diff})" if diff else ""))
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands byte-identical to {rev}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
