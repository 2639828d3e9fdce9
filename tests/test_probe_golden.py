"""Recorded dumps of the rank probe, replayed through their sha256.

One line per probe holds its ell, label, prime, the (degree, rank over QQ,
rank mod p) of every level, the verdict and the drop level; a prime where
(c, h) does not reduce is written as "degenerate".  The grids run every
probe to level 9 at every odd prime up to 89.

The grids were recorded while the probes at one label shared its QQ tower
and ranked its whole levels mod p; they now rank each level from the row
spaces of the two below, with the process-wide table of L_1 and L_2.

- `shared`: ell = 2..6, every canonical label, the primes in turn, so the
  probes share the table (1265 probes).
- `fresh`: ell = 2..4, with the table cleared before each probe, so every
  probe fills its own (437 probes).
- `deep`: three probes past level 9, each on a cold table: (2; 2,2) at
  p = 101 and (6; 4,3) at p = 83 to level 16, and (3; 2,1) at p = 23 to
  level 18, where it drops.  Recorded while the probe still took its QQ
  ranks from the exact radical, so it pins the character's ranks to the
  engine's.

To print every sha256 after an intended output change:

    PYTHONPATH=src python tests/test_probe_golden.py
"""
import hashlib

from virmod import virasoro
from virmod.virasoro import DegenerateParams, irreducibility_probe
from virmod.weights import MinimalLabel, canonical_labels, primes_upto

LEVEL = 9
PRIMES = primes_upto(89)[1:]
DEEP = ((2, (2, 2), 101, 16), (6, (4, 3), 83, 16), (3, (2, 1), 23, 18))
DUMP_SHA256 = {
    "shared": "da10ecb8f46d59499ba59c1f7069128802130458115f2262176f0043e8fc4a61",
    "fresh": "539db36e2ca1b92cbf04c7361e317006c67526f123b44bd78cadc021d3c74f36",
    "deep": "bc36aa60eb1dd3babf085f4cd6bb71434e70df732791ebc629b166e0f4e7a67e",
}


def grid(ells):
    """(ell, label, prime, level) of every grid probe at these ells."""
    return [(ell, lab, p, LEVEL) for ell in ells for lab in canonical_labels(ell) for p in PRIMES]


def deep():
    return [(ell, MinimalLabel(ell, m, n), p, level) for ell, (m, n), p, level in DEEP]


def dump_sha256(probes, fresh):
    h = hashlib.sha256()
    for ell, lab, p, level in probes:
        if fresh:
            virasoro._generators.cache_clear()
        try:
            v = irreducibility_probe(ell, lab, p, level)
            line = f"{v.levels} {v.verdict} {v.drop_level}"
        except DegenerateParams:
            line = "degenerate"
        h.update(f"{ell} {lab.m},{lab.n} {p} {line}\n".encode())
    return h.hexdigest()


def test_shared_towers_match_the_recording():
    assert dump_sha256(grid(range(2, 7)), fresh=False) == DUMP_SHA256["shared"]


def test_fresh_towers_match_the_recording():
    assert dump_sha256(grid(range(2, 5)), fresh=True) == DUMP_SHA256["fresh"]


def test_deep_probes_match_the_recording():
    assert dump_sha256(deep(), fresh=True) == DUMP_SHA256["deep"]


if __name__ == "__main__":
    print("shared", dump_sha256(grid(range(2, 7)), fresh=False))
    print("fresh", dump_sha256(grid(range(2, 5)), fresh=True))
    print("deep", dump_sha256(deep(), fresh=True))
