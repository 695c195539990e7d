"""Write the program's byte-identity set to OUTDIR.

    python tests/record_outputs.py OUTDIR

A change that claims to move no output bit is checked by running this
script in a copy of each side and comparing the two trees:

    diff -r OUTDIR_PARENT OUTDIR_CHANGE

The set is

* list, and show ID for each of the 25 families (the printer's text of
  every PDE and solution)
* verify all --seed 1 --json
* verify all --seed 7 --json
* verify 3.7 3.8 5.1 5.2 5.3 --seed 3 --scenarios 2 --points 6
  --probe-branches --json
* the 80 reference samples: sample 3.8 on a 5x5 grid and sample 4.4 on a
  6x6 grid over [0.2, 1.2]^2, seeds 1-40, each written with -o (its CSV and
  .scenario.json sidecar).

Each command runs in a fresh interpreter on the package in this checkout's
src/, with every BLAS pool pinned to one thread, and from OUTDIR itself, so
the paths a command prints are the same in every tree.  Its stdout, stderr
and exit code are kept as NAME.stdout, NAME.stderr and NAME.exit.  One tree
takes about 2.5 minutes.  The script is not a test: pytest does not collect
it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pdegensol.catalog import family_ids  # noqa: E402
PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
AXIS = "0.2:1.2:{}"


def commands():
    """(name, pdegensol arguments) of every command in the set."""
    yield "list", ["list"]
    for fid in family_ids():
        yield f"show_{fid}", ["show", fid]
    yield "verify_all_seed1", ["verify", "all", "--seed", "1", "--json"]
    yield "verify_all_seed7", ["verify", "all", "--seed", "7", "--json"]
    yield "verify_probe_seed3", ["verify", "3.7", "3.8", "5.1", "5.2", "5.3",
                                 "--seed", "3", "--scenarios", "2",
                                 "--points", "6", "--probe-branches", "--json"]
    for fid, grid in (("3.8", 5), ("4.4", 6)):
        axis = AXIS.format(grid)
        for seed in range(1, 41):
            name = f"sample_{fid}_seed{seed:02d}"
            yield name, ["sample", fid, "--grid", f"t={axis}",
                         "--grid", f"x={axis}", "--seed", str(seed),
                         "-o", f"{name}.csv"]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **PINS, "PYTHONPATH": str(SRC)}
    for name, args in commands():
        run = subprocess.run([sys.executable, "-m", "pdegensol.cli", *args],
                             cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(run.stdout)
        (out / f"{name}.stderr").write_bytes(run.stderr)
        (out / f"{name}.exit").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
