"""Golden bits: the float64 patterns `pdegensol sample` prints for 4.4 and
3.8 on a 3x3 grid at seed 1.

These pin the last bit of the deepest nest (4.4, five integrals) and of a
root-bearing family (3.8) through the whole CLI path, so a change meant to
be bit-identical (a faster gather, a copy saved) is caught here if it moves
anything.  Re-record them only in a change that moves numerics on purpose
(ROADMAP item 3 onward), and say so in CHANGES.md."""

import contextlib
import csv
import io

import numpy as np
import pytest

from pdegensol.cli import main

GOLDEN = {
    "4.4": [
        "bff36a9571eb5c12", "bff7f57a8b6293d4", "bffd1a8a0d358840",
        "bff4ab82ff8bcd79", "bffc14b29352e40b", "c002d4e6afa7e645",
        "bff63ccbaa61e86a", "c00128d55d0c43e5", "c00a677b6fd81e98",
    ],
    "3.8": [
        "3ff42c4fdc367219", "40042bfb80d65e11", "40161b9942768e82",
        "3fe9c549dd9eba1f", "3fdfed870d648f8e", "3fbf7ef93a516cbb",
        "3fe0994d21c26d35", "3f94f7b24f0aa01b", "bfd6e2c3f40f16d5",
    ],
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_sample_bits(family):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["sample", family, "--grid", "t=0.2:1.2:3",
                   "--grid", "x=0.2:1.2:3", "--seed", "1"])
    assert rc == 0
    # line 0 is the scenario comment, line 1 the header; %.17g round-trips
    rows = list(csv.reader(buf.getvalue().splitlines()[2:]))
    w = np.array([float(r[-1]) for r in rows])
    assert [f"{b:016x}" for b in w.view(np.uint64)] == GOLDEN[family]
