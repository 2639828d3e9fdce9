"""Coset-decomposition bookkeeping for sl2-hat tensor products.

Decomposes V(lambda_{l-1;n}) (x) V(omega_eps) into summands
V(lambda_{l;j}) (x) L_{c_l, h}, one integer row per summand from
`_summand_rows`, and checks the combinatorial shape on those rows: the
j-indices partition a parity class, labels are canonical, grade offsets
(depths) are non-negative integers, and summands are multiplicity-free.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from operator import le, mod


def _summand_rows(ell: int, n: int, eps: int):
    """The summands of V(lambda_{l-1;n}) (x) V(omega_eps) as rows
    (j, m, k, num), lazily, for 0 <= n <= l-1 and eps in (0, 1).

    First branch: j in [0, n], j = n+eps (mod 2), label (m, k) = (n+1, j+1).
    Second branch: j in [n+1, l], same parity, label (l-n, l+1-j).
    The labels are built as given, so `gko_verify` checks that they are
    canonical.  The depth is the L0 offset of the summand's top vector
    inside the product, h_j^(l) + h_(m,k) - h_n^(l-1) - h_eps^(1), where the
    level-k module with index n has Sugawara weight n(n+2)/(4(k+2)) and
    h_(m,k) = N/(4(l+1)(l+2)), N = (m(l+2) - k(l+1))^2 - 1.  num is the
    depth times the common denominator 12(l+1)(l+2):
    3j(j+2)(l+1) + 3N - 3n(n+2)(l+2) - eps(eps+2)(l+1)(l+2).
    """
    a, b = ell + 2, ell + 1
    base = 3 * n * (n + 2) * a + eps * (eps + 2) * a * b
    for j in range((n + eps) % 2, ell + 1, 2):
        m, k = (n + 1, j + 1) if j <= n else (ell - n, ell + 1 - j)
        yield j, m, k, 3 * j * (j + 2) * b + 3 * ((m * a - k * b) ** 2 - 1) - base


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
            js, ms, ks, nums = zip(*_summand_rows(ell, n, eps))
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
