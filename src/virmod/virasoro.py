"""Verma-module engine: PBW normal ordering, Gram matrices, rank probes.

Basis monomials L_{-a1}...L_{-ak} v are indexed by partitions (a1 >= ... >= ak).
Positive modes are commuted rightward with
[L_m, L_n] = (m-n) L_{m+n} + delta_{m+n,0} * (1/2) * binom(m+1, 3) * C,
annihilating the highest-weight vector; L0 acts on a degree-d monomial as
h + d, and C as c.  The images L_k (monomial) are memoized per parameter
set: the commutator cascades are shared by every Gram entry, only the
(c, h) leaves differ.

Gram matrices are built by recursion on level.  Moving the leading mode of
the left monomial across the contravariant form gives
G_n[mu, lam] = sum_q (L_{mu_1} lam)_q * G_{n-mu_1}[mu minus mu_1, q],
so level n needs one memoized image per (mu_1, lam) and the rows of lower
levels.  Each parameter set keeps the rows of every level it has finished,
so asking for levels one at a time builds each level once.  `apply_mode`
and `PBWVector` apply whole mode words; they serve as the tests' oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import DenseMatrix, PrimeField, QQ, RationalField, determinant, is_prime, rank, reduce_mod_p
from .weights import MinimalLabel, central_charge, highest_weight

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically descending."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


class DegenerateParams(ValueError):
    """Central charge or highest weight has no image mod p."""


@dataclass
class VermaParams:
    """Central charge and highest weight in a concrete field."""

    c: object
    h: object
    field_: RationalField | PrimeField = QQ
    _memo: dict = field(default_factory=dict, repr=False, compare=False)
    _levels: list = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def rational(cls, c: Fraction, h: Fraction) -> "VermaParams":
        return cls(Fraction(c), Fraction(h), QQ)

    @classmethod
    def mod_p(cls, c: Fraction, h: Fraction, p: int) -> "VermaParams":
        """Raises ValueError unless p is an odd prime, and DegenerateParams
        when c or h has no image mod p."""
        f = PrimeField(p)
        try:
            return cls(f.from_fraction(c), f.from_fraction(h), f)
        except ValueError as e:
            raise DegenerateParams(str(e)) from None


@dataclass(frozen=True)
class PBWVector:
    """Homogeneous combination of degree-`degree` basis monomials."""

    degree: int
    terms: tuple[tuple[Partition, object], ...]

    def as_dict(self) -> dict[Partition, object]:
        return dict(self.terms)


def _vector(degree: int, terms: dict) -> PBWVector:
    return PBWVector(degree, tuple(sorted(terms.items())))


def basis_vector(part: Partition, fld=QQ) -> PBWVector:
    return _vector(sum(part), {tuple(part): fld.one})


@lru_cache(maxsize=None)
def _prepend(a: int, part: Partition) -> tuple[tuple[Partition, int], ...]:
    """Normal-order L_{-a} * (monomial part); integer coefficients only.

    [L_{-a}, L_{-b}] = (b - a) L_{-(a+b)}; no central term for negative modes.
    """
    if not part or a >= part[0]:
        return (((a,) + part, 1),)
    b, rest = part[0], part[1:]
    out: dict[Partition, int] = {}
    for q, s in _prepend(a, rest):
        for q2, s2 in _prepend(b, q):
            out[q2] = out.get(q2, 0) + s * s2
    for q, s in _prepend(a + b, rest):
        out[q] = out.get(q, 0) + (b - a) * s
    return tuple((q, s) for q, s in out.items() if s)


def _act_pos(k: int, part: Partition, params: VermaParams) -> dict[Partition, object]:
    """Image of L_k (k > 0) on a basis monomial, as partition -> scalar."""
    key = (k, part)
    memo = params._memo
    if key in memo:
        return memo[key]
    f = params.field_
    out: dict[Partition, object] = {}
    if part:
        a, rest = part[0], part[1:]

        def accumulate(q: Partition, s):
            if f.is_zero(s):
                return
            out[q] = f.add(out.get(q, f.zero), s) if q in out else s

        # L_k L_{-a} X = L_{-a} (L_k X) + [L_k, L_{-a}] X
        for q, s in _act_pos(k, rest, params).items():
            for q2, c2 in _prepend(a, q):
                accumulate(q2, f.mul(s, f.from_int(c2)))
        m2 = k - a
        coeff = f.from_int(k + a)
        if m2 > 0:
            for q, s in _act_pos(m2, rest, params).items():
                accumulate(q, f.mul(coeff, s))
        elif m2 < 0:
            for q, c2 in _prepend(-m2, rest):
                accumulate(q, f.mul(coeff, f.from_int(c2)))
        else:
            # bracket = 2k L0 + (1/2) binom(k+1,3) C; both act as scalars
            half_binom = Fraction(comb(k + 1, 3), 2)
            scalar = f.add(
                f.mul(coeff, f.add(params.h, f.from_int(sum(rest)))),
                f.mul(f.from_fraction(half_binom), params.c),
            )
            accumulate(rest, scalar)
    out = {q: s for q, s in out.items() if not f.is_zero(s)}
    memo[key] = out
    return out


def apply_mode(k: int, state: PBWVector, params: VermaParams) -> PBWVector:
    """Normal-ordered image of L_k on a homogeneous vector; degree drops by k."""
    if k == 0:
        raise ValueError("L0 acts as the scalar h + degree; use the scalar directly")
    f = params.field_
    out: dict[Partition, object] = {}
    for part, coeff in state.terms:
        if k > 0:
            img = _act_pos(k, part, params)
        else:
            img = {q: f.from_int(s) for q, s in _prepend(-k, part)}
        for q, s in img.items():
            v = f.mul(coeff, s)
            out[q] = f.add(out.get(q, f.zero), v) if q in out else v
    out = {q: s for q, s in out.items() if not f.is_zero(s)}
    return _vector(state.degree - k, out)


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[Partition, int]:
    """Index of each partition of n in `partitions(n)`."""
    return {part: i for i, part in enumerate(partitions(n))}


def _build_levels(params: VermaParams, n: int) -> None:
    """Append the Gram rows of the levels `params` lacks, through level n."""
    f = params.field_
    levels = params._levels
    if not levels:
        levels.append(((f.one,),))
    for m in range(len(levels), n + 1):
        basis = partitions(m)
        # (mu_1, row of G_{m-mu_1} at mu minus mu_1) for each row mu
        heads = [(mu[0], levels[m - mu[0]][_positions(m - mu[0])[mu[1:]]]) for mu in basis]
        rows = [[f.zero] * len(basis) for _ in basis]
        for j, lam in enumerate(basis):
            images: dict[int, list] = {}
            for i in range(j + 1):  # G is symmetric: build the upper triangle
                k, lower = heads[i]
                image = images.get(k)
                if image is None:
                    pos = _positions(m - k)
                    image = images[k] = [(pos[q], s) for q, s in _act_pos(k, lam, params).items()]
                total = f.zero
                for idx, s in image:
                    total = f.add(total, f.mul(s, lower[idx]))
                rows[i][j] = rows[j][i] = total
        levels.append(tuple(map(tuple, rows)))


def gram_matrix(params: VermaParams, n: int) -> DenseMatrix:
    """Contravariant-form matrix at degree n over the partition basis.

    Entry (mu, lambda) is the vacuum coefficient of L_{mu_k}...L_{mu_1}
    applied to the lambda monomial (rightmost factor, the largest part,
    acts first).  It is built by the level recursion in the module
    docstring from the rows of levels 0..n-1, which `params` keeps: a
    later call on the same params builds only the levels it lacks.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _build_levels(params, n)
    return DenseMatrix(params.field_, params._levels[n])


@dataclass(frozen=True)
class GramReport:
    levels: tuple[tuple[int, int, int], ...]  # (degree, verma dim p(N), rank)


def graded_rank(params: VermaParams, n_max: int) -> GramReport:
    """Per-level Gram ranks: the graded dimension of the irreducible quotient."""
    levels = []
    for n in range(n_max + 1):
        m = gram_matrix(params, n)
        levels.append((n, len(partitions(n)), rank(m)))
    return GramReport(tuple(levels))


@dataclass(frozen=True)
class ProbeVerdict:
    label: MinimalLabel
    p: int
    n_max: int
    levels: tuple[tuple[int, int, int], ...]  # (degree, rank over QQ, rank mod p)
    verdict: str  # "consistent" | "rank-drop"
    drop_level: int | None

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def irreducibility_probe(ell: int, label: MinimalLabel, p: int, n_max: int = 8) -> ProbeVerdict:
    """Compare graded Gram ranks over QQ and over F_p at a minimal-series point.

    Equal ranks at every level are evidence that reduction mod p preserves
    the irreducible quotient at this truncation; the first level where the
    mod-p rank is smaller is reported as a rank drop.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    c = central_charge(ell)
    h = highest_weight(ell, label.m, label.n)
    if p == 2 or not reduce_mod_p(c, p).is_defined or not reduce_mod_p(h, p).is_defined:
        raise DegenerateParams(
            f"(c, h) = ({c}, {h}) does not reduce mod {p}; no naive mod-p module"
        )
    over_q = graded_rank(VermaParams.rational(c, h), n_max)
    over_p = graded_rank(VermaParams.mod_p(c, h, p), n_max)
    levels = tuple(
        (n, rq, rp) for (n, _, rq), (_, _, rp) in zip(over_q.levels, over_p.levels)
    )
    drop = next((n for n, rq, rp in levels if rp != rq), None)
    return ProbeVerdict(
        label, p, n_max, levels, "consistent" if drop is None else "rank-drop", drop
    )


@dataclass(frozen=True)
class VanishingReport:
    label: MinimalLabel
    d_min: int
    n_max: int
    determinants: tuple[tuple[int, Fraction], ...]
    passed: bool


def kac_vanishing_check(ell: int, label: MinimalLabel, n_max: int = 8) -> VanishingReport:
    """Cross-check the Gram engine against the classical vanishing locus.

    At (c_l, h_{m,n}) the level-N Gram determinant over QQ must vanish for
    N >= d_min = min(m*n, (l+1-m)(l+2-n)) and be nonzero below.
    """
    if not label.is_canonical:
        raise ValueError("label must be canonical")
    d_min = min(label.m * label.n, (ell + 1 - label.m) * (ell + 2 - label.n))
    params = VermaParams.rational(central_charge(ell), highest_weight(ell, label.m, label.n))
    dets = []
    ok = True
    for n in range(1, n_max + 1):
        d = determinant(gram_matrix(params, n))
        dets.append((n, d))
        if (d == 0) != (n >= d_min):
            ok = False
    return VanishingReport(label, d_min, n_max, tuple(dets), ok)
