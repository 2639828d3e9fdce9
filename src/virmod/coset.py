"""Coset-decomposition bookkeeping for sl2-hat tensor products.

Decomposes V(lambda_{l-1;n}) (x) V(omega_eps) into summands
V(lambda_{l;j}) (x) L_{c_l, h}, and checks the combinatorial shape:
the j-indices partition a parity class, labels are canonical,
grade offsets (depths) are non-negative integers, and summands are
multiplicity-free.  `gko_verify` reads the integer rows of `_summand_rows`,
which `gko_summands` wraps in `CosetSummand` records.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import le, mod

from .weights import MinimalLabel


class AffineWeight(namedtuple("AffineWeight", "level n")):
    """Level-l dominant integral weight (l-n) w0 + n w1."""

    __slots__ = ()

    def __new__(cls, level: int, n: int):
        if not (0 <= n <= level):
            raise ValueError("index out of range for the level")
        return super().__new__(cls, level, n)


def sugawara_weight(k: int, n: int) -> Fraction:
    """Conformal weight n(n+2)/(4(k+2)) of the level-k module with index n."""
    AffineWeight(k, n)
    return Fraction(n * (n + 2), 4 * (k + 2))


class CosetSummand(namedtuple("CosetSummand", "j label branch depth")):
    """One summand: index j, its `MinimalLabel`, branch "first" or "second",
    and its depth, a Fraction."""

    __slots__ = ()


def _summand_rows(ell: int, n: int, eps: int):
    """The summands of `gko_summands` as rows (j, m, k, branch, num), lazily:
    (m, k) is the label as built and num the depth times 12(l+1)(l+2)."""
    a, b = ell + 2, ell + 1
    base = 3 * n * (n + 2) * a + eps * (eps + 2) * a * b
    for j in range((n + eps) % 2, ell + 1, 2):
        m, k, branch = (n + 1, j + 1, "first") if j <= n else (ell - n, ell + 1 - j, "second")
        yield j, m, k, branch, 3 * j * (j + 2) * b + 3 * ((m * a - k * b) ** 2 - 1) - base


def gko_summands(ell: int, n: int, eps: int) -> list[CosetSummand]:
    """Summands of V(lambda_{l-1;n}) (x) V(omega_eps).

    First branch: j in [0, n], j = n+eps (mod 2), label (n+1, j+1).
    Second branch: j in [n+1, l], same parity, label (l-n, l+1-j).
    The labels are built as given, so `gko_verify` checks that they are
    canonical.  Depth is the L0 offset of the summand's top vector inside
    the product, h_j^(l) + h_{label} - h_n^(l-1) - h_eps^(1) in the
    Sugawara weights of `sugawara_weight`.  It is computed as one integer
    over the common denominator 12(l+1)(l+2):
    3j(j+2)(l+1) + 3N - 3n(n+2)(l+2) - eps(eps+2)(l+1)(l+2), N the weight
    numerator of the label.
    """
    if ell < 2 or not (0 <= n <= ell - 1) or eps not in (0, 1):
        raise ValueError("index out of range")
    den = 12 * (ell + 1) * (ell + 2)
    rows = _summand_rows(ell, n, eps)
    return [CosetSummand(j, MinimalLabel(ell, m, k), branch, Fraction(num, den)) for j, m, k, branch, num in rows]


class GkoReport(
    namedtuple("GkoReport", "ell index_partition_ok labels_canonical_ok depths_ok multiplicity_free_ok total_count")
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self[1:5]) and self.total_count == self.ell * (self.ell + 1)  # the four *_ok flags


def gko_verify(ell: int) -> GkoReport:
    """Structural checks of the decomposition over every (n, eps) cell, on
    the integer rows: 1 <= k <= m <= l is a canonical label (m, k)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    den = 12 * (ell + 1) * (ell + 2)
    part_ok = labels_ok = depths_ok = mult_ok = True
    total = 0
    for n in range(ell):
        for eps in (0, 1):
            js, ms, ks, _, nums = zip(*_summand_rows(ell, n, eps))
            total += len(js)
            part_ok = part_ok and sorted(js) == list(range((n + eps) % 2, ell + 1, 2))
            labels_ok = labels_ok and min(ks) >= 1 and max(ms) <= ell and all(map(le, ks, ms))
            depths_ok = depths_ok and min(nums) >= 0 and not any(map(mod, nums, repeat(den)))
            mult_ok = mult_ok and len(set(zip(js, ms, ks))) == len(js)
    return GkoReport(ell, part_ok, labels_ok, depths_ok, mult_ok, total)


class Table1Row(namedtuple("Table1Row", "ell p_max_known bound")):
    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return self.p_max_known < self.bound


# Maximal known primes with a reducible level-l Weyl module, per the
# published table; checked against the bound 2l^2+l-3.
TABLE1_DATA = ((2, 3), (3, 13), (4, 11), (5, 23), (6, 37), (7, 47), (8, 53))


def table1_check() -> list[Table1Row]:
    return [Table1Row(ell, p, 2 * ell * ell + ell - 3) for ell, p in TABLE1_DATA]
