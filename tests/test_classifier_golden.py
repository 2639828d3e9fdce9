"""A recorded dump of the prime classifier, replayed through its sha256.

One record per (ell, p) holds `is_bad_prime`, `degenerate_count`,
`collision_count` at the CLI limit and without one, and, where the count
stays within the CLI limit (so `classify` would list the pairs), the
`classify_prime` verdict with each label as its (ell, m, n).  The dump covers
every prime up to the prop-h window top 2l^2+3l at ell = 2..30, every
prime dividing D = 4(l+1)(l+2) at ell = 2..100, and four pairs above
l^2+l-2 at large ell.  The listings left out hold up to 3.4 million pairs
at ell = 100; the counts above still cover them.
To print the sha256 after an intended output change:

    PYTHONPATH=src python tests/test_classifier_golden.py
"""
import hashlib
from array import array
from itertools import chain
from math import inf

from virmod import cli
from virmod.weights import classify_prime, collision_count, degenerate_count, is_bad_prime, primes_upto

DUMP_SHA256 = "c8d06d3cbce77a004eda2ca012a028c7cbf9137108501368c6c019f209ae3c68"


def cases():
    for ell in range(2, 31):
        for p in primes_upto(2 * ell * ell + 3 * ell):
            yield ell, p
    for ell in range(2, 101):
        for p in primes_upto(ell + 2):
            if 4 * (ell + 1) * (ell + 2) % p == 0:
                yield ell, p
    yield from [(200, 1000000007), (1999, 3998003), (2000, 4002001), (2000, 7995991)]


def dump_sha256():
    h = hashlib.sha256()
    for ell, p in cases():
        count = collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX)
        counts = f"{degenerate_count(ell, p)} {count} {collision_count(ell, p, inf)}"
        h.update(f"{ell} {p} {is_bad_prime(ell, p)} {counts}".encode())
        if count <= cli.CLASSIFY_PAIRS_MAX:
            c = classify_prime(ell, p)
            h.update(f" {c.ell} {c.p} {c.status} {c.central_charge_defined} {len(c.collisions)}\n".encode())
            # each label as its (ell, m, n), the pairs in order, then the degenerate labels
            h.update(array("I", chain.from_iterable(chain.from_iterable(c.collisions))))
            h.update(array("I", chain.from_iterable(c.degenerate)))
        h.update(b"\n")
    return h.hexdigest()


def test_dump_matches_the_recording():
    assert dump_sha256() == DUMP_SHA256


if __name__ == "__main__":
    print(dump_sha256())
