"""Check that two checkouts give the same command-line results, byte for byte.

    python3 tools/equivalence.py PARENT CHANGE

Each side runs one fixed set of `scatopt` commands, each in a fresh
`python -m scatopt.cli` with `PYTHONPATH=<side>/src`,
`PYTHONDONTWRITEBYTECODE=1` and `OPENBLAS_NUM_THREADS=1`; nothing is
imported from either checkout.  Each side runs in a temporary directory of
its own, into the same relative `--out`, because `summary.json` records
`--out` as typed.  The set covers `run`, `verify` and `compare` on the six
shipped problems and a seeded asynchronous `run` of each; the three
commands on the block form, the factored form and the factored form with a
linear cost; and one command for each of the exit codes 1, 2 and 3.
Each command has its documented exit code, and a command differs when
either side exits otherwise, or when the sides' stdout, stderr or written
files differ; `tools/equivalence.py . .` thus checks one checkout alone.

Printed: one line per command, `equal` with its exit code and the number of
files it wrote, or which side exited otherwise and which of stdout, stderr
and the written files differ; then how many commands were equal.  Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBLEMS = ("lasso_huber", "lasso_augmented", "minimax_fir", "minimax_fir_split",
            "svm_consensus", "sparse_equalizer")
# written into each side's directory and passed as `--config NAME.json`
CONFIGS = {
    "block": {"problem": "svm_consensus", "instance": {"n_agents": 100}},
    "factored": {"problem": "lasso_huber", "instance": {"m": 100, "n": 500}},
    # N = 609 with the ripple bounds' linear cost
    "factored_linear": {"problem": "minimax_fir", "instance": {"grid_size": 600}},
    "gram_overflow": {"problem": "minimax_fir", "instance": {"stopband_weight": 1e200}},
    "singular_lp": {"problem": "minimax_fir", "instance": {"num_taps": 15, "grid_size": 2}},
}
COMMANDS = [
    *([command, "--problem", name] for name in PROBLEMS
      for command in ("run", "verify", "compare")),
    *(["run", "--problem", name, "--mode", "async", "--p", "0.1", "--seed", "0"]
      for name in PROBLEMS),
    *([command, "--config", f"{form}.json"] for form in ("block", "factored", "factored_linear")
      for command in ("run", "verify", "compare")),
    ["run", "--config", "gram_overflow.json"],
    ["run", "--problem", "lasso_huber", "--max-iters", "5"],
    ["compare", "--config", "singular_lp.json"],
]
# each command's documented exit code: 0 unless named here
EXIT_CODES = {
    "compare --problem sparse_equalizer": 1,  # no independent oracle
    "run --config gram_overflow.json": 1,  # a configuration error
    "run --problem lasso_huber --max-iters 5": 2,  # not converged
    "compare --config singular_lp.json": 3,  # the reference oracle failed
}


def start(checkout: Path, workdir: Path, argv: list, out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-m", "scatopt.cli", *argv, "--out", out],
                            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outcome(proc: subprocess.Popen, out: Path) -> dict:
    """A finished command's exit code, stdout, stderr and written files (path to bytes)."""
    stdout, stderr = proc.communicate()
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
             if f.is_file()} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": stdout, "stderr": stderr, "files": files}


def differences(parent: dict, change: dict, code: int) -> list:
    """Each side that exits other than `code`, then the parts of the two outcomes
    that differ; the files part names the differing files."""
    found = [f"{side} exit {ran['exit code']}, not {code}"
             for side, ran in (("parent", parent), ("change", change)) if ran["exit code"] != code]
    found += [part for part in ("stdout", "stderr") if parent[part] != change[part]]
    names = sorted(name for name in parent["files"].keys() | change["files"].keys()
                   if parent["files"].get(name) != change["files"].get(name))
    if names:
        found.append(f"files ({', '.join(names)})")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sides = [args.parent.resolve(), args.change.resolve()]
    for checkout in sides:
        if not (checkout / "src" / "scatopt" / "cli.py").is_file():
            parser.error(f"{checkout} holds no src/scatopt/cli.py")
    differing = 0
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        workdirs = [Path(parent_dir), Path(change_dir)]
        for workdir in workdirs:
            for form, config in CONFIGS.items():
                (workdir / f"{form}.json").write_text(json.dumps(config))
        for k, argv in enumerate(COMMANDS):
            out = f"out/{k:02d}"
            procs = [start(checkout, workdir, argv, out)
                     for checkout, workdir in zip(sides, workdirs)]
            parent, change = (outcome(proc, workdir / out)
                              for proc, workdir in zip(procs, workdirs))
            found = differences(parent, change, EXIT_CODES.get(" ".join(argv), 0))
            differing += bool(found)
            status = ("differ: " + ", ".join(found) if found else
                      f"equal (exit {parent['exit code']}, {len(parent['files'])} files)")
            print(f"{status:<26} scatopt {' '.join(argv)}", flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands equal")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
