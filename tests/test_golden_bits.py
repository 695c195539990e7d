"""Golden bits: the float64 patterns `pdegensol sample` prints for 4.4 and
3.8 on a 3x3 grid at seed 1 and for 3.8 on its default 5x5 grid at seed 7,
and the digests of three `pdegensol verify --json` reports.

These pin the last bit of the deepest nest (4.4, five integrals) and of a
root-bearing family (3.8) through the whole CLI path, so a change meant to
be bit-identical (a faster gather, a copy saved) is caught here if it moves
anything.  3.8 at seed 7 runs into the quadrature's per-column panel cap
while it solves its roots; the first verify report covers root solving
with derivative jets, the degenerate-root test, the evaluation guards and
variable-limit integrals.  Between them the first two reports cover the
four families whose solutions abbreviate a square root with `let`, which
the parser expands: 5.2 in the first, 3.5, 5.1 and 7.2 in the second.
The third covers nested endpoint scopes (4.3's xi and tau scopes) and
the integrals at their own limit that reuse an interior (3.3, 3.11 and
4.3).  All of them run the engine's limits at their real values.  Re-record them
only in a change that moves numerics on purpose (ROADMAP item 3 onward),
and say so in CHANGES.md."""

import contextlib
import csv
import hashlib
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

# `sample 3.8 --seed 7`: the default grid, 5 points per axis over the
# sample box
GOLDEN_PANEL_CAP = [
    "3ff2ea061d281198", "3ffeeb83242e6296", "400a8860e60af594",
    "40176b9d010ae70d", "4024f720fa2b2ba3", "3fec5d000cbb75ed",
    "3fef9505eb0fff59", "3ff1f732800fab6b", "3ff4e84166bf1a94",
    "3ff8e3199cc6e518", "3fe84bfca468470c", "3fe56ffc737ecda7",
    "3fe2083e4edc5a8b", "3fdc0087d4dd69da", "3fd282099e131f62",
    "3fe600edefe6fb84", "3fe04423417fb03d", "3fd48120f2639a93",
    "3fbfbf3a13fc4d15", "bfb49e4bc86a334b", "3fe4abc2296c5644",
    "3fda8317ab8c4412", "3fc8c1730fd08963", "bf90fcd33307ebdd",
    "bfcb9eb75e46d7f4",
]

VERIFY_ARGV = ["verify", "3.10", "5.2", "--scenarios", "1", "--points", "4",
               "--seed", "1", "--json"]
VERIFY_SHA256 = \
    "d6761ec6e944a8eff581fb5385f7e55f4a4df56e78636785a392af550f547c89"
VERIFY_LET_ARGV = ["verify", "3.5", "5.1", "7.2", "--scenarios", "1",
                   "--points", "4", "--seed", "1", "--json"]
VERIFY_LET_SHA256 = \
    "610c0006474187ce49d31c640fa4d2e3b02147595b1a04b7de08297a628f57aa"
# the nested endpoint scopes: 4.3's xi scope, and the tau scope in its
# memo, and the xi scopes of 3.3 and 3.11, where an integral over eta at
# xi = x meets the interior of the top-level one
VERIFY_SCOPES_ARGV = ["verify", "4.3", "3.3", "3.11", "--scenarios", "1",
                      "--points", "4", "--seed", "1", "--json"]
VERIFY_SCOPES_SHA256 = \
    "22d5b2591153c12f58852eb11f696bc3ee6117da0232de51c1e8c1f2febec66b"


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return buf.getvalue()


def _sample_bits(argv):
    # line 0 is the scenario comment, line 1 the header; %.17g round-trips
    rows = list(csv.reader(_stdout(argv).splitlines()[2:]))
    w = np.array([float(r[-1]) for r in rows])
    return [f"{b:016x}" for b in w.view(np.uint64)]


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_sample_bits(family):
    assert _sample_bits(["sample", family, "--grid", "t=0.2:1.2:3",
                         "--grid", "x=0.2:1.2:3", "--seed", "1"]) \
        == GOLDEN[family]


def test_sample_bits_at_panel_cap():
    assert _sample_bits(["sample", "3.8", "--seed", "7"]) == GOLDEN_PANEL_CAP


def test_verify_report_digest():
    text = _stdout(VERIFY_ARGV)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SHA256


def test_verify_let_report_digest():
    text = _stdout(VERIFY_LET_ARGV)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_LET_SHA256


def test_verify_scopes_report_digest():
    text = _stdout(VERIFY_SCOPES_ARGV)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SCOPES_SHA256
