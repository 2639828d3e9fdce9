"""Seeded inputs and independent oracles for the three benchmark workloads.

Nothing here imports virmod: the oracles are written from the mathematics,
so a defect in the program cannot hide in the check that judges it.

Inputs are drawn once per run from (workload, seed), and every pass of the
run repeats them, so a pass is a fixed amount of work and the median pass
is a steady figure.  Draws are confined to narrow bands, so that two seeds
give passes of nearly the same cost and the run-to-run spread comes from
the host, not from the luck of the draw.  prime-sweep and gram-deep have
five items a pass, so the pooled 50th and 70th percentiles fall inside one
item's cluster of times rather than in the gap between two.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("paper", "prime-sweep", "gram-deep")

# sha256 of `virmod reproduce-paper --json` at the commit that introduced
# the benchmark (7404 bytes); the report must stay byte-identical.
PAPER_SHA256 = "cb83aeb050f978d5eacad4bd5dbe71387cf28b76eeb6f3d77bad1d367017c17c"

# prime-sweep: (kind, lowest ell, highest ell), one item per band, cheapest
# first.  Classification cost grows like ell^4, so the bands are narrow.  The
# ells of the items that set item_p50_ms and peak_rss_mb are fixed: 21 and 22
# differ in cost by 20%, and 30 and 31 in peak memory by 5%.  The
# verify_prop_h bands hold ells whose window above the bound has nearly the
# same number of primes.
SWEEP_BANDS = (
    ("bad_primes", 12, 14),
    ("prop_h", 44, 51),
    ("bad_primes", 22, 22),
    ("prop_h", 112, 113),
    ("bad_primes", 30, 30),
)

# gram-deep: one minimal-series probe per (ell, m, n), at a seeded prime,
# plus generic points whose six-digit heights make Bareiss, not the Gram
# build, the top-level cost.  The labels are fixed because a probe's cost
# depends on h: at h = 0 it is about 40% cheaper than at most labels.  Their
# d_min are 2, 3 and 6.
PROBE_LABELS = ((2, 2, 2), (3, 3, 2), (4, 3, 2))
PROBE_LEVEL = 11
ELL2_PRIMES = (11, 13, 101)
GENERIC_POINTS = 2
GENERIC_LEVEL = 10
GENERIC_HEIGHT = (500_000, 999_999)


def run_items(workload: str, seed: int) -> list[dict]:
    """The items every pass of a run with `seed` executes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper":
        return [{"kind": "paper"}]
    if workload == "prime-sweep":
        return [{"kind": kind, "ell": rng.randint(lo, hi)} for kind, lo, hi in SWEEP_BANDS]
    if workload == "gram-deep":
        items = []
        for ell, m, n in PROBE_LABELS:
            items.append(
                {"kind": "probe", "ell": ell, "m": m, "n": n, "p": _probe_prime(rng, ell), "level": PROBE_LEVEL}
            )
        for _ in range(GENERIC_POINTS):
            c, h = _generic_point(rng, GENERIC_LEVEL)
            items.append({"kind": "generic", "c": str(c), "h": str(h), "level": GENERIC_LEVEL})
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _probe_prime(rng: random.Random, ell: int) -> int:
    if ell == 2:
        return rng.choice(ELL2_PRIMES)
    bound = 2 * ell * ell + ell - 3
    return rng.choice([p for p in primes_upto(4 * bound) if p > bound])


def _generic_point(rng: random.Random, level: int) -> tuple[Fraction, Fraction]:
    """A rational (c, h) off every Kac curve h = h_{r,s}(c) with rs <= level."""
    lo, hi = GENERIC_HEIGHT

    def draw() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))

    while True:
        c, h = draw(), draw()
        if not any(kac_phi(r, s, c, h) == 0 for r, s in kac_pairs(level)):
            return c, h


# ------------------------------------------------------------------ oracles


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def bad_primes_oracle(ell: int) -> list[int]:
    """Bad primes by comparing weight residues directly, without Fractions.

    h_{m,n} = N_{m,n} / D with N = (m(l+2) - n(l+1))^2 - 1 and D = 4(l+1)(l+2).
    For p not dividing D, two weights collide mod p exactly when their
    numerators do.  For p dividing D, a weight has an image mod p only when
    p does not divide its reduced denominator.  p = 2 is bad by convention.
    """
    d = 4 * (ell + 1) * (ell + 2)
    nums = [(m * (ell + 2) - n * (ell + 1)) ** 2 - 1 for m in range(1, ell + 1) for n in range(1, m + 1)]
    bad = [2]
    for p in primes_upto(2 * ell * ell + ell - 3)[1:]:
        if d % p:
            residues = {x % p for x in nums}
            count = len(nums)
        else:
            residues = set()
            count = 0
            for x in nums:
                g = gcd(x, d)
                if (d // g) % p:
                    residues.add(x // g * pow(d // g, -1, p) % p)
                    count += 1
        if len(residues) < count:
            bad.append(p)
    return bad


def partition_count(n: int) -> int:
    """p(n), the dimension of the level-n space of a Verma module."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def kac_pairs(level: int) -> list[tuple[int, int]]:
    """(r, s) with r <= s and rs <= level: each Kac factor up to that level once."""
    return [(r, s) for r in range(1, level + 1) for s in range(r, level // r + 1)]


def kac_phi(r: int, s: int, c: Fraction, h: Fraction) -> Fraction:
    """(h - h_{r,s}(c)) (h - h_{s,r}(c)), a polynomial in c and h.

    With c = 13 - 6(t + 1/t) and h_{r,s} = ((r t - s)^2 - (t - 1)^2) / (4t),
    the product is symmetric under t -> 1/t, so it depends on t + 1/t =
    (13 - c)/6 only.  It vanishes exactly on the level-rs Kac curves.
    """
    a, b = r * r - 1, s * s - 1
    w = (13 - c) / 6
    y = h + Fraction(r * s - 1, 2)
    return y * y - y * (a + b) * w / 4 + (a * b * w * w + (a - b) ** 2) / 16


def d_min(ell: int, m: int, n: int) -> int:
    """First level where the Gram determinant at (c_l, h_{m,n}) vanishes."""
    return min(m * n, (ell + 1 - m) * (ell + 2 - n))


def check_item(item: dict, out, bad_primes_cache: dict) -> str | None:
    """None when the program's output for `item` is right, else the reason."""
    kind = item["kind"]
    if kind == "paper":
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        if out.get("sha256") != PAPER_SHA256:
            return f"report sha256 {out.get('sha256')} differs from the recorded report"
        return None
    if kind == "bad_primes":
        ell = item["ell"]
        if ell not in bad_primes_cache:
            bad_primes_cache[ell] = bad_primes_oracle(ell)
        if out != bad_primes_cache[ell]:
            return f"bad_primes({ell}) = {out}, oracle {bad_primes_cache[ell]}"
        return None
    if kind == "prop_h":
        return None if out["passed"] else f"verify_prop_h({item['ell']}) failed"
    if kind == "probe":
        ell, m, n, p = item["ell"], item["m"], item["n"], item["p"]
        first_zero = d_min(ell, m, n)
        for level, rq, rp in out["levels"]:
            if (rq == partition_count(level)) != (level < first_zero):
                return f"QQ rank {rq} at level {level} breaks the Kac pattern (d_min {first_zero})"
            if rp > rq:
                return f"rank mod {p} ({rp}) above the QQ rank ({rq}) at level {level}"
        if len(out["levels"]) != item["level"] + 1:
            return "probe returned the wrong number of levels"
        if ell == 2 and p in ELL2_PRIMES and out["verdict"] != "consistent":
            return f"ell=2 probe at p={p} not consistent: {out['verdict']}"
        return None
    if kind == "generic":
        for level, dim, rk in out["levels"]:
            if dim != partition_count(level) or rk != dim:
                return f"rank {rk} at level {level}, expected full rank {partition_count(level)}"
        if len(out["levels"]) != item["level"] + 1:
            return "graded_rank returned the wrong number of levels"
        return None
    raise ValueError(f"unknown item kind {kind!r}")
