"""Coset-decomposition bookkeeping for sl2-hat tensor products.

Decomposes V(lambda_{l-1;n}) (x) V(omega_eps) into summands
V(lambda_{l;j}) (x) L_{c_l, h}, and checks the combinatorial shape:
the j-indices partition a parity class, labels are canonical,
grade offsets (depths) are non-negative integers, and summands are
multiplicity-free.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

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
    a, b = ell + 2, ell + 1
    den = 12 * a * b
    base = 3 * n * (n + 2) * a + eps * (eps + 2) * a * b
    out = []
    for j in range(0, ell + 1):
        if (j - n - eps) % 2:
            continue
        if j <= n:
            m, k, branch = n + 1, j + 1, "first"
        else:
            m, k, branch = ell - n, ell + 1 - j, "second"
        label = MinimalLabel(ell, m, k)
        num = (m * a - k * b) ** 2 - 1
        depth = Fraction(3 * j * (j + 2) * b + 3 * num - base, den)
        out.append(CosetSummand(j, label, branch, depth))
    return out


class GkoReport(
    namedtuple("GkoReport", "ell index_partition_ok labels_canonical_ok depths_ok multiplicity_free_ok total_count")
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.index_partition_ok
            and self.labels_canonical_ok
            and self.depths_ok
            and self.multiplicity_free_ok
            and self.total_count == self.ell * (self.ell + 1)
        )


def gko_verify(ell: int) -> GkoReport:
    """Structural checks of the decomposition over every (n, eps) cell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    part_ok = labels_ok = depths_ok = mult_ok = True
    total = 0
    for n in range(ell):
        for eps in (0, 1):
            summands = gko_summands(ell, n, eps)
            total += len(summands)
            expected_js = {j for j in range(ell + 1) if (j - n - eps) % 2 == 0}
            js = [s.j for s in summands]
            if sorted(js) != sorted(expected_js) or len(set(js)) != len(js):
                part_ok = False
            if any(not s.label.is_canonical for s in summands):
                labels_ok = False
            if any(s.depth.denominator != 1 or s.depth.numerator < 0 for s in summands):
                depths_ok = False
            if len({(s.j, s.label) for s in summands}) != len(summands):
                mult_ok = False
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
