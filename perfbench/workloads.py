"""The benchmark's workloads: operation lists generated from a seed.

An operation is one call a user makes: one `verify_family` call, or one
`pdegensol sample` invocation through `cli.main`.  A workload is a pass of
operations repeated, on fresh seeds, as often as the run length allows;
the number of passes depends only on --seconds, never on measured time,
so a seed always gives the same operations and the same counts.

The per-pass costs below were measured on a 2-core x86-64 host (Python
3.11, numpy 2.4, one thread) and only set the pass count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple


class Op(NamedTuple):
    kind: str  # "verify" or "sample"
    family: str
    seed: int
    scenarios: int = 0  # verify only
    points: int = 0  # verify only
    grid: int = 0  # sample only: points per axis over the sample box

    def label(self) -> str:
        if self.kind == "verify":
            return (f"verify {self.family} seed {self.seed} "
                    f"{self.scenarios}x{self.points}")
        return f"sample {self.family} seed {self.seed} {self.grid}x{self.grid}"

    def argv(self) -> List[str]:
        """cli.main arguments of a sample operation."""
        axis = f"{SAMPLE_BOX[0]}:{SAMPLE_BOX[1]}:{self.grid}"
        return ["sample", self.family, "--grid", f"t={axis}",
                "--grid", f"x={axis}", "--seed", str(self.seed)]


# every workload is one closed-loop caller on one thread: the package's own
# pool and every BLAS pool pinned to one
PINS = {
    "PDEGENSOL_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# depth <= 2 and no implicit root
ELEMENTARY = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.9", "3.11", "4.1",
              "5.1", "6.1", "6.2", "6.3", "6.4", "6.5", "7.1", "7.2")
SAMPLE_BOX = (0.2, 1.2)
# sample references exist for seeds 1..SAMPLE_POOL of each sampled family
SAMPLE_POOL = 40


def _elementary(seed: int, passes: int) -> List[Op]:
    # one contiguous seed range, every family at the default 5 x 20
    start = 1 + seed * passes
    return [Op("verify", f, s, 5, 20)
            for s in range(start, start + passes) for f in ELEMENTARY]


def _heavy(seed: int, passes: int) -> List[Op]:
    # every root-bearing and every depth 3-5 family.  3.7 runs once a pass
    # at 1x2 on the roadmap's reference scenario, seed 1 (about 11 s), not
    # on a drawn seed: its verdict is INDETERMINATE on a few seeds in a
    # hundred (KNOWN_DEFECTS), and its cost swings 5-12 s by seed.  The rest
    # of the pass follows --seed.  Ten 5.2 operations sit in the middle of
    # the latency order, thirteen operations below them and thirteen above,
    # so the median of 36 is the mean of the fifth and sixth 5.2 operation
    # and the tail percentile (p72) a 4.3 operation.  The kinds are
    # interleaved, so that each percentile samples the whole run and not
    # one stretch of the host's speed
    ops: List[Op] = []
    for p in range(passes):
        s = 1 + (seed * passes + p) * 5
        big = [Op("verify", "3.7", 1, 1, 2), Op("verify", "3.8", s, 1, 20),
               Op("verify", "4.4", s, 1, 10)]
        cheap = ([Op("verify", f, s + i, 1, 20)
                  for i in range(5) for f in ("3.10", "5.3")]
                 + [Op("verify", "4.2", s + i, 5, 20) for i in range(3)])
        for i in range(10):
            ops += [Op("verify", "5.2", s + i, 1, 20),
                    Op("verify", "4.3", s + i, 1, 20)] + cheap[i::10]
            if i % 3 == 2:
                ops.append(big[i // 3])
    return ops


def _sample_grid(seed: int, passes: int) -> List[Op]:
    # sample seeds come from the pool the references were recorded on.  A
    # 3.8 sample's cost swings threefold with its drawn scenario, so 4.4's
    # steadier grids carry most of the run and hold the median
    ops: List[Op] = []
    for p in range(passes):
        k = seed * passes + p
        ops += [Op("sample", "4.4", 1 + (5 * k + i) % SAMPLE_POOL, grid=6)
                for i in range(5)]
        ops += [Op("sample", "3.8", 1 + (2 * k + i) % SAMPLE_POOL, grid=5)
                for i in range(2)]
    return ops


# name -> (operation list maker, measured seconds one pass takes); perfbench/README.md
# says why each workload exists
WORKLOADS: Dict[str, Tuple[Callable[[int, int], List[Op]], float]] = {
    "elementary": (_elementary, 0.75),
    "heavy": (_heavy, 31.0),
    "sample_grid": (_sample_grid, 15.0),
}


def build(name: str, seed: int, seconds: float) -> List[Op]:
    if seed < 0:
        raise ValueError("seed must be >= 0")
    make, pass_s = WORKLOADS[name]
    passes = max(1, round(seconds / pass_s))
    return make(seed, passes)


def sample_ops_for_reference() -> List[Op]:
    """Every sample operation any seed can produce."""
    return ([Op("sample", "3.8", s, grid=5) for s in range(1, SAMPLE_POOL + 1)]
            + [Op("sample", "4.4", s, grid=6)
               for s in range(1, SAMPLE_POOL + 1)]
            + [op for op in COVERAGE_OPS if op.kind == "sample"])


# verify operations whose verdict is not PASS at the seed commit.  They are
# program defects, kept out of the workloads (no operation of a workload may
# fail) and reported by `run.py --sanity` until they are fixed
KNOWN_DEFECTS = [Op("verify", "3.7", 26, 1, 2),
                 Op("verify", "3.7", 6011743076, 1, 2)]


# tiny traced run that must reach every wrapper of the tracer: a root-bearing
# family with variable-limit integrals (all jet kernels, both callbacks, the
# symbolic derivatives) and one sample through the command line
COVERAGE_OPS = [Op("verify", "3.10", 1, 1, 2), Op("sample", "3.8", 1, grid=2)]
