"""Minimal-series weight arithmetic and the bad/good prime classifier.

For the discrete-series central charge c_l = 1 - 6/((l+1)(l+2)) the highest
weight h_{m,n} is N/D with N = x^2 - 1, x = m(l+2) - n(l+1), and
D = 4(l+1)(l+2).  This module computes the collision set B_l by brute force
(a bytearray of marks, over only the positive values by the negation
symmetry proved at `b_set_marks`, compared with the closed form run by run)
and as closed intervals, the good-candidate set G_l as the complement of
those intervals, and checks the bound 2l^2 + l - 3 beyond which every prime
is good.

The classifier keys each weight by its x = m + k(l+1) = n + k(l+2), k = m-n.
A canonical label has 1 <= m <= l and 0 <= k < m, so x lies in
[1, l^2+l-1] and fixes its label: m = x mod (l+1) and k = x div (l+1).

One rule serves every odd prime p.  Let p^e be the exact power of p in D
(e = 0 off D).  Then h_{m,n} has an image mod p exactly when
x = +-1 (mod p^e), and two such weights collide exactly when
x_a^2 = x_b^2 (mod p^{e+1}), that is, x_a = +-x_b (mod p^{e+1}).  Proof:
N/D has an image exactly when p^e | N = (x-1)(x+1), and p divides at most
one factor, as their common divisors divide 2.  The images are then
(N/p^e)(D/p^e)^-1, so two agree exactly when p^{e+1} divides
N_a - N_b = (x_a - x_b)(x_a + x_b).  When e >= 1 p divides no x, hence at
most one of these factors; when e = 0 the modulus p is prime.

On D, l+1 and l+2 being coprime, p^e is the power of p in one of them.  As
x = m (mod l+1) and x = n (mod l+2), the rule keeps the rows with
m = +-1 (mod p^e) when p | l+1 and the columns with n = +-1 (mod p^e) when
p | l+2 (`_defined_rule`): for a prime l+1 the l+1 labels with m = 1 or
m = l, for a prime l+2 the l labels with n = 1.  Off D it keeps every row.
`_classes` streams the kept x with their classes x^2 mod p^{e+1}, and one
routine, `_collisions`, groups them for the p | D verdict,
`collision_count` and `classify_prime`.  Above l^2+l-2 no stream is needed:
such p exceeds l+2, so e = 0, and 0 < |x_a - x_b| < p and
0 < x_a + x_b < 2p, so every class is a pair whose x sum to p.

Off D the verdict is a membership test for B_l.  With e = 0, two distinct
canonical weights collide exactly when p divides (x_a + x_b)(x_a - x_b).
The sum x_a + x_b = (m+m')(l+2) - (n+n')(l+1) is a value of B_l up to
sign.  The mirror (l+1-m', l+2-n') of b names the same weight and has
x = -x_b, so x_a - x_b is the sum of the x of a and of that mirror, a
value of B_l as well.  Enumeration over the distinct canonical pairs
(tests/test_weights.py, ell = 2..30) shows the realized |x_a +- x_b| are
all of B_l except its top value 2(l^2+l-1), and at ell = 2 also except 2,
which no odd p divides (p = 2 is bad by convention).  So p is bad exactly
when a multiple of p below the top lies in B_l.  B_l holds [1, l^2+l-2],
so every odd p <= l^2+l-2 off D is bad, and a larger p has
2p >= 2(l^2+l-1): it is bad exactly when p lies in B_l below the top.

Membership takes O(1), with no table.  As l+2 = (l+1)+1, a value
v = s(l+2) - t(l+1) has s = v (mod l+1).  So with k, r = divmod(v, l+1),
the only s in [2, 2l] are s = r and s = r+l+1, and each fixes
t = (s(l+2) - v)/(l+1): t = r-k and t = r+l+2-k.  A positive v lies in B_l
exactly when one of the two has t in [2, 2l+2] and s in range, that is,
when r-k >= 2, or when r <= l-1 and k <= r+l (`in_b_set_below_top`).
`b_set_marks` marks the whole set at once for the bulk callers.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, compress
from math import inf, isqrt
from operator import le

from .exact import is_prime


def _check_ell(ell: int) -> None:
    if ell < 2:
        raise ValueError("ell must be >= 2")


class MinimalLabel(namedtuple("MinimalLabel", "ell m n")):
    """A weight label (m, n) at level parameter ell.  It and its mirror
    (l+1-m, l+2-n) name the same weight; `canonical_labels` lists the one
    with n <= m.  Labels sort by (ell, m, n)."""

    __slots__ = ()

    def __new__(cls, ell: int, m: int, n: int):
        _check_ell(ell)
        if not (1 <= m <= ell and 1 <= n <= ell + 1):
            raise ValueError(f"label ({m},{n}) out of range for ell={ell}")
        return super().__new__(cls, ell, m, n)


def central_charge(ell: int) -> Fraction:
    _check_ell(ell)
    return 1 - Fraction(6, (ell + 1) * (ell + 2))


def highest_weight(ell: int, m: int, n: int) -> Fraction:
    MinimalLabel(ell, m, n)  # range check
    num = (m * (ell + 2) - n * (ell + 1)) ** 2 - 1
    return Fraction(num, 4 * (ell + 1) * (ell + 2))


def canonical_labels(ell: int) -> list[MinimalLabel]:
    """All l(l+1)/2 canonical labels, sorted."""
    _check_ell(ell)
    return [MinimalLabel(ell, m, n) for m in range(1, ell + 1) for n in range(1, m + 1)]


class IntervalSet(namedtuple("IntervalSet", "intervals")):
    """Sorted, disjoint, non-adjacent closed integer intervals: `intervals`
    is a tuple of (low, high) pairs."""

    __slots__ = ()

    @classmethod
    def from_marks(cls, marks: bytes) -> "IntervalSet":
        """The set {v : marks[v] == 1} of a sequence of 0/1 bytes, read off
        run by run."""
        runs = []
        lo = marks.find(1)
        while lo >= 0:
            hi = marks.find(0, lo)
            if hi < 0:
                hi = len(marks)
            runs.append((lo, hi - 1))
            lo = marks.find(1, hi)
        return cls(tuple(runs))

    def __contains__(self, v: int) -> bool:
        i = bisect_right(self.intervals, v, key=lambda iv: iv[0])
        return i > 0 and v <= self.intervals[i - 1][1]

    def __str__(self) -> str:
        return " u ".join(f"[{a},{b}]" if a != b else f"{{{a}}}" for a, b in self.intervals)


def b_set_marks(ell: int) -> bytearray:
    """Marks of the collision values |(m+m')(l+2) - (n+n')(l+1)|, zero excluded:
    byte v is 1 exactly when v is a collision value.

    The value depends on the index tuple only through the sums s = m+m' and
    t = n+n', s in [2, 2l] and t in [2, 2l+2], so enumerating sums covers
    every tuple.  The map (s, t) -> (2l+2-s, 2l+4-t) keeps both ranges and
    sends v = s(l+2) - t(l+1) to -v, as (2l+2)(l+2) = (2l+4)(l+1), so the
    absolute values are the positive values: for each s, x - t(l+1) with
    x = s(l+2) and t = floor(x/(l+1))..2, marked whole.  The zero value
    occurs exactly at symmetry-paired tuples and is discarded.
    """
    _check_ell(ell)
    a, b = ell + 2, ell + 1
    # the largest value, 2l(l+2) - 2(l+1), is at s = 2l, t = 2
    marks = bytearray(2 * ell * a - 2 * b + 1)
    ones = b"\x01" * (2 * ell)
    for x in range(2 * a, 2 * ell * a + 1, a):  # x = s(l+2), s = 2..2l
        # x - t*b >= 0 exactly for t <= k, and 2 <= k <= 2l+1 as 2b < x < (2l+2)b
        k = x // b
        marks[x - k * b : x - 2 * b + 1 : b] = ones[: k - 1]  # t = k..2
    marks[0] = 0
    return marks


def b_set_bruteforce(ell: int) -> list[int]:
    """Collision values by brute force, sorted: the marked values of `b_set_marks`."""
    marks = b_set_marks(ell)
    return list(compress(range(len(marks)), marks))


def b_set_intervals(ell: int) -> IntervalSet:
    """Closed form of the collision set: [1, l^2+l-2] plus l short blocks.

    Block a = 0..l-1 is [l^2+l+a(l+2), l^2+2l-1+a(l+1)], of l-a values, and
    starts a+2 above the end of the interval before it, so the intervals
    come sorted, disjoint and non-adjacent as built.
    """
    _check_ell(ell)
    low, a, b = ell * ell + ell, ell + 2, ell + 1
    blocks = zip(range(low, low + ell * a, a), range(low + ell - 1, low + ell - 1 + ell * b, b))
    return IntervalSet(((1, low - 2), *blocks))


def d_matrix(ell: int) -> list[list[int]]:
    """The (2l-1) x (l+1) table of |column - row| differences.

    Rows are labelled by (m+m')(l+2) for m+m' = 2..2l increasing; columns by
    (n+n')(l+1) for n+n' = 2..l+2 (the left half of the full table; the full
    table is symmetric under 180-degree rotation).
    """
    _check_ell(ell)
    rows = [s * (ell + 2) for s in range(2, 2 * ell + 1)]
    cols = [t * (ell + 1) for t in range(2, ell + 3)]
    return [[abs(c - r) for c in cols] for r in rows]


def g_set(ell: int, corrected: bool = False) -> IntervalSet:
    """Complement of B_l in an initial interval: candidate good-prime range.

    corrected=False uses the published range [1, 2l^2+l-3]; corrected=True
    uses [1, 2l^2+2l-3], the range under which the complement equals the
    union of the blocks G_l(a) exactly.  The complement is read off the gaps
    between the l+1 intervals of `b_set_intervals`, in O(l): those intervals
    are sorted and non-adjacent, so the nonempty gaps, cut at the top of the
    range, are too.
    """
    top = 2 * ell * ell + (2 * ell if corrected else ell) - 3
    lows, highs = zip(*b_set_intervals(ell).intervals)
    starts = [1, *map((1).__add__, highs)]
    ends = [*map((-1).__add__, lows), top]
    k = bisect_right(starts, top)  # the gaps that start in range; only the last can end above it
    del starts[k:], ends[k:]
    ends[-1] = min(ends[-1], top)
    return IntervalSet(tuple(compress(zip(starts, ends), map(le, starts, ends))))


def g_blocks(ell: int) -> IntervalSet:
    """The union of the blocks G_l(a) = [l^2+l-1+a(l+1), l^2+l-1+a(l+2)].

    Block a+1 starts l+1-a >= 2 above the end of block a, so the blocks come
    sorted, disjoint and non-adjacent as built.
    """
    _check_ell(ell)
    base, a, b = ell * ell + ell - 1, ell + 2, ell + 1
    return IntervalSet(tuple(zip(range(base, base + ell * b, b), range(base, base + ell * a, a))))


class PrimeClassification(
    namedtuple("PrimeClassification", "ell p status collisions degenerate central_charge_defined")
):
    """The verdict of `classify_prime`: status "good" or "bad", the colliding
    pairs of labels, the labels with no image mod p, and whether c has one."""

    __slots__ = ()


def primes_upto(n: int) -> list[int]:
    """The primes up to n, ascending: a sieve of the odd numbers alone, byte
    i standing for 2i+1."""
    if n < 2:
        return []
    half = (n + 1) // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            start = q * q // 2  # q^2 = 2 * start + 1; step q in bytes is 2q in values
            sieve[start::q] = bytes((half - 1 - start) // q + 1)
    return [2, *compress(range(1, n + 1, 2), sieve)]


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p <= hi, ascending.

    Only the window is sieved, by the primes up to isqrt(hi) from
    `primes_upto`: each crosses off its multiples from the first one in the
    window that is at least its square, so the base primes in the window
    stay.  The cost grows with hi - lo and sqrt(hi), not with hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi - lo + 1)
    for q in primes_upto(isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)
        if start <= hi:
            sieve[start - lo :: q] = bytes((hi - start) // q + 1)
    return list(compress(range(lo, hi + 1), sieve))


def in_b_set_below_top(ell: int, v: int) -> bool:
    """Whether v lies in B_l below its top value 2(l^2+l-1), in O(1): the
    verdict of an odd prime not dividing D.  The rule, and why it needs only
    two candidates (s, t), are in the module docstring."""
    k, r = divmod(v, ell + 1)
    # s = r gives t = r - k; s = r + l + 1 gives t = r + l + 2 - k
    return 0 < v < 2 * (ell * ell + ell - 1) and (r - k >= 2 or r < ell and k <= r + ell)


def _defined_rule(ell: int, p: int) -> tuple[bool, int, list[int]]:
    """For an odd prime p, the rule of the module docstring: whether it keeps
    rows of m (p does not divide l+2) or columns of n, p^e, the exact power
    of p in D, and the kept values in 1..l of that coordinate, those = +-1
    mod p^e, ascending."""
    by_m = (ell + 2) % p != 0
    q, pe = (ell + 1 if by_m else ell + 2), 1
    while q % (pe * p) == 0:
        pe *= p
    # c = 1 and c = -1 (mod p^e): two strides, which are one when p^e = 1
    return by_m, pe, sorted({*range(1, ell + 1, pe), *range(pe - 1 or 1, ell + 1, pe)})


def _classes(ell: int, p: int):
    """For an odd prime p, lazily: (x, x^2 mod p^{e+1}) for each canonical
    weight with an image mod p.  Two of these weights collide exactly when
    their classes agree (the rule of the module docstring).  Rows run
    n = 1..m, so off D the weights come in label order."""
    by_m, pe, kept = _defined_rule(ell, p)
    a, b, q = ell + 2, ell + 1, pe * p
    if by_m:  # the row of m: x = m + k(l+1) for k = m-1..0, that is n = 1..m
        xs = (range(m * a - b, m - 1, -b) for m in kept)
    else:  # the column of n: x = n + k(l+2) for k = 0..l-n, that is m = n..l
        xs = (range(n, n + (ell - n) * a + 1, a) for n in kept)
    return ((x, x * x % q) for run in xs for x in run)


def _collisions(ell: int, p: int, limit: float) -> tuple[int, list[list[int]]]:
    """For a prime p, the classes of two or more canonical weights that
    collide mod p, each a list of their x, and the number of pairs they
    hold.  p = 2 lists none.

    Up to l^2+l-2 the classes come from `_classes`, read only until the
    count passes `limit`: with limit 0 the reading stops at the first
    repeated class.  Above, each class is x with p - x (module docstring),
    found in O(l) plus the pairs, and a good p, by `in_b_set_below_top`,
    reads no row.  Row m holds x = m + k(l+1) for 0 <= k < m, up to
    m(l+2) - (l+1).  Its partners p - x share the residue r = (p - m) mod
    (l+1), and p - x is a label's x when r exceeds (p - x) div (l+1), that
    is, when x > p - r(l+2).  Each pair is kept from its smaller x, x < p/2.
    """
    if p == 2:
        return 0, []
    if p > ell * ell + ell - 2:
        if not in_b_set_below_top(ell, p):
            return 0, []
        a, b, half, classes = ell + 2, ell + 1, p // 2, []
        for m in range(1, b):
            r = (p - m) % b
            for x in range(max(m, p + b - r * a), min(m * a - b, half) + 1, b):
                classes.append([x, p - x])
        return len(classes), classes
    first: dict[int, int] = {}  # class -> x of its first weight
    shared: dict[int, list[int]] = {}  # that x -> every x of a class of two or more
    pairs = 0
    for x, r in _classes(ell, p):
        y = first.setdefault(r, x)
        if y != x:
            xs = shared.setdefault(y, [y])
            pairs += len(xs)  # the k-th member of a class adds k-1
            xs.append(x)
            if pairs > limit:
                break
    return pairs, list(shared.values())


def _is_bad_dividing_d(ell: int, p: int) -> bool:
    """The verdict for a prime p dividing D: p = 2 is bad by convention, and
    an odd p is bad when `_collisions` finds one pair."""
    return p == 2 or _collisions(ell, p, 0)[0] > 0


def _check_prime_args(ell: int, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_ell(ell)


def is_bad_prime(ell: int, p: int) -> bool:
    """The verdict of `classify_prime` alone, without building its labels.

    p = 2 and the odd p dividing D take it from the weights defined mod p;
    every other p from `in_b_set_below_top`.  Both rules are in the module
    docstring.
    """
    _check_prime_args(ell, p)
    if 4 * (ell + 1) * (ell + 2) % p == 0:
        return _is_bad_dividing_d(ell, p)
    return in_b_set_below_top(ell, p)


def collision_count(ell: int, p: int, limit: int) -> int:
    """How many pairs `classify_prime(ell, p)` lists, counted by `_collisions`
    without building a label, or limit + 1 when there are more than `limit`.
    The reading stops at the first weight that takes the count above
    `limit`, so at a small p it reads only the first weights, and a good
    p > l^2+l-2 reads no weight."""
    _check_prime_args(ell, p)
    return min(_collisions(ell, p, limit)[0], limit + 1)


def degenerate_count(ell: int, p: int) -> int:
    """How many labels `classify_prime(ell, p)` lists as degenerate, counted
    in O(ell) without building one: none for p = 2 or p not dividing D, and
    otherwise every canonical label that `_defined_rule` drops."""
    _check_prime_args(ell, p)
    if p == 2 or 4 * (ell + 1) * (ell + 2) % p:
        return 0
    by_m, _, kept = _defined_rule(ell, p)
    # n = 1..m for each kept m, or m = n..l for each kept n
    defined = sum(kept) if by_m else len(kept) * (ell + 1) - sum(kept)
    return ell * (ell + 1) // 2 - defined


def _degenerate_labels(ell: int, p: int) -> tuple[MinimalLabel, ...]:
    """For a prime p, the labels `classify_prime` lists as degenerate, in
    label order: for an odd p dividing D those that `_defined_rule` drops,
    otherwise none."""
    if p == 2 or 4 * (ell + 1) * (ell + 2) % p:
        return ()
    by_m, _, kept = _defined_rule(ell, p)
    kept = set(kept)
    return tuple(MinimalLabel(ell, m, n) for m in range(1, ell + 1) for n in range(1, m + 1)
                 if (m if by_m else n) not in kept)


def classify_prime(ell: int, p: int) -> PrimeClassification:
    """Good iff the canonical weights stay pairwise distinct mod p.

    p = 2 is bad by convention.  Weights whose reduced denominator is
    divisible by p have no image mod p; they are reported in `degenerate`
    (`_degenerate_labels`) and excluded from the collision comparison.
    Collisions are the sorted pairs of labels in one class of `_collisions`;
    labels are built only for the classes it lists.
    """
    _check_prime_args(ell, p)
    _, classes = _collisions(ell, p, inf)
    b = ell + 1
    # the label of x = m + (m - n)(l+1): m = x mod (l+1) and n = m - x div (l+1)
    labels = [sorted(MinimalLabel(ell, x % b, x % b - x // b) for x in xs) for xs in classes]
    collisions = tuple(sorted(pair for group in labels for pair in combinations(group, 2)))
    status = "bad" if p == 2 or collisions else "good"
    cc_defined = central_charge(ell).denominator % p != 0
    return PrimeClassification(ell, p, status, collisions, _degenerate_labels(ell, p), cc_defined)


def bad_primes(ell: int) -> list[int]:
    """All bad primes; complete because every prime above 2l^2+l-3 is good.

    Only the verdict is computed per prime.  p = 2 and the odd primes
    dividing D (at most l+2) take it from the weights defined mod p; every
    other prime reads its collision mark, which for p <= 2l^2+l-3 <
    2(l^2+l-1) is the whole rule of the module docstring.
    """
    _check_ell(ell)
    bound = 2 * ell * ell + ell - 3
    den, marks = 4 * (ell + 1) * (ell + 2), b_set_marks(ell)
    return [p for p in primes_upto(bound) if (marks[p] if den % p else _is_bad_dividing_d(ell, p))]


class VerifyReport(namedtuple("VerifyReport", "name ell passed detail", defaults=("",))):
    __slots__ = ()


def verify_prop_h(ell: int) -> VerifyReport:
    """Spot-check: every prime in (2l^2+l-3, 2l^2+3l] classifies good.

    Only the window is sieved, by `primes_between`.  Every prime of the window
    exceeds l+2, so none divides D, and each takes its verdict from
    `in_b_set_below_top` by the rule of the module docstring: the check is
    that no prime in (2l^2+l-3, 2(l^2+l-1)) is a collision value.
    """
    _check_ell(ell)
    window = primes_between(2 * ell * ell + ell - 2, 2 * ell * ell + 3 * ell)
    offenders = [p for p in window if in_b_set_below_top(ell, p)]
    return VerifyReport(
        "prop-h",
        ell,
        not offenders,
        f"checked primes {window}" if not offenders else f"bad above bound: {offenders}",
    )


def verify_prop_x(ell: int) -> VerifyReport:
    """Brute-force collision set equals its interval decomposition, run by run."""
    ok = IntervalSet.from_marks(b_set_marks(ell)) == b_set_intervals(ell)
    return VerifyReport("prop-x", ell, ok)


def verify_g_identity(ell: int) -> VerifyReport:
    """Corrected-range complement equals the union of the G_l(a) blocks."""
    ok = g_set(ell, corrected=True) == g_blocks(ell)
    return VerifyReport("g-identity", ell, ok)
