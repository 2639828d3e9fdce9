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

Both fields run one integer engine.  Each parameter set fixes a scale D:
over QQ, D = lcm(den h, 2 den c), so D*h and D*c/2 are integers; over F_p,
D = 1 and c/2 is c * 2^-1 mod p.  Commuting L_k rightward through a
monomial meets at most one (c, h) scalar per term, where L_k meets L_{-k};
every other structure constant is an integer.  So D * (L_k monomial) is
integral, and the memo holds it as ints (residues over F_p).  Levels are
kept as S_n = D^n G_n, built without a gcd by the recursion above times D^n:
S_n[mu, lam] = sum_q (D L_{mu_1} lam)_q * D^(mu_1 - 1) * S_{n-mu_1}[mu minus mu_1, q].
`gram_matrix` divides by D^n; ranks are taken on S_n, since scaling a row
by a nonzero number keeps the rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .exact import DenseMatrix, PrimeField, QQ, RationalField, determinant, rank
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

    def __post_init__(self):
        # the engine's ints: the scale D, D*h and D*c/2, and the modulus (0 over QQ)
        if isinstance(self.field_, PrimeField):
            p = self._mod = self.field_.p
            self._scale, self._dh, self._dc2 = 1, self.h % p, self.c * pow(2, -1, p) % p
        else:
            c, h = Fraction(self.c), Fraction(self.h)
            d = lcm(h.denominator, 2 * c.denominator)
            self._mod = 0
            self._scale, self._dh, self._dc2 = d, int(d * h), int(d * c / 2)

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


def _act_pos(k: int, part: Partition, params: VermaParams) -> dict[Partition, int]:
    """D times the image of L_k (k > 0) on a basis monomial, as partition ->
    int (a residue mod p over F_p)."""
    key = (k, part)
    memo = params._memo
    if key in memo:
        return memo[key]
    out: dict[Partition, int] = {}
    if part:
        a, rest = part[0], part[1:]
        # L_k L_{-a} X = L_{-a} (L_k X) + [L_k, L_{-a}] X
        for q, s in _act_pos(k, rest, params).items():
            for q2, c2 in _prepend(a, q):
                out[q2] = out.get(q2, 0) + s * c2
        m2 = k - a
        coeff = k + a
        if m2 > 0:
            for q, s in _act_pos(m2, rest, params).items():
                out[q] = out.get(q, 0) + coeff * s
        elif m2 < 0:
            coeff *= params._scale
            for q, c2 in _prepend(-m2, rest):
                out[q] = out.get(q, 0) + coeff * c2
        else:
            # D * (2k L0 + (1/2) binom(k+1,3) C); both act as scalars
            scalar = coeff * (params._dh + params._scale * sum(rest)) + comb(k + 1, 3) * params._dc2
            out[rest] = out.get(rest, 0) + scalar
    if params._mod:
        out = {q: s % params._mod for q, s in out.items()}
    out = {q: s for q, s in out.items() if s}
    memo[key] = out
    return out


def apply_mode(k: int, state: PBWVector, params: VermaParams) -> PBWVector:
    """Normal-ordered image of L_k on a homogeneous vector; degree drops by k."""
    if k == 0:
        raise ValueError("L0 acts as the scalar h + degree; use the scalar directly")
    f = params.field_
    unscale = f.from_fraction(Fraction(1, params._scale))
    out: dict[Partition, object] = {}
    for part, coeff in state.terms:
        if k > 0:
            img = {q: f.mul(s, unscale) for q, s in _act_pos(k, part, params).items()}
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
    """Append S_m = D^m G_m for the levels `params` lacks, through level n."""
    levels = params._levels
    if not levels:
        levels.append(((1,),))
    d, p = params._scale, params._mod
    for m in range(len(levels), n + 1):
        basis = partitions(m)
        # (mu_1, row of S_{m-mu_1} at mu minus mu_1) for each row mu
        heads = [(mu[0], levels[m - mu[0]][_positions(m - mu[0])[mu[1:]]]) for mu in basis]
        rows = [[0] * len(basis) for _ in basis]
        for j, lam in enumerate(basis):
            images: dict[int, list] = {}
            for i in range(j + 1):  # S is symmetric: build the upper triangle
                k, lower = heads[i]
                image = images.get(k)
                if image is None:
                    pos, dk = _positions(m - k), d ** (k - 1)
                    image = images[k] = [(pos[q], s * dk) for q, s in _act_pos(k, lam, params).items()]
                total = 0
                for idx, s in image:
                    total += s * lower[idx]
                rows[i][j] = rows[j][i] = total % p if p else total
        levels.append(tuple(map(tuple, rows)))


def gram_matrix(params: VermaParams, n: int) -> DenseMatrix:
    """Contravariant-form matrix at degree n over the partition basis.

    Entry (mu, lambda) is the vacuum coefficient of L_{mu_k}...L_{mu_1}
    applied to the lambda monomial (rightmost factor, the largest part,
    acts first).  It is S_n / D^n, with S_n built by the level recursion in
    the module docstring from the levels 0..n-1, which `params` keeps: a
    later call on the same params builds only the levels it lacks.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _build_levels(params, n)
    rows = params._levels[n]
    if not params._mod:
        scale = params._scale**n
        rows = tuple(tuple(Fraction(x, scale) for x in row) for row in rows)
    return DenseMatrix(params.field_, rows)


@dataclass(frozen=True)
class GramReport:
    levels: tuple[tuple[int, int, int], ...]  # (degree, verma dim p(N), rank)


def graded_rank(params: VermaParams, n_max: int) -> GramReport:
    """Per-level Gram ranks (of S_n): the graded dimension of the irreducible quotient."""
    _build_levels(params, n_max)
    return GramReport(tuple(
        (n, len(partitions(n)), rank(DenseMatrix(params.field_, params._levels[n])))
        for n in range(n_max + 1)
    ))


@lru_cache(maxsize=32)
def _rational_ranks(c: Fraction, h: Fraction, n_max: int) -> tuple[int, ...]:
    """QQ Gram ranks at levels 0..n_max; probes at one (c, h) share them."""
    return tuple(r for _, _, r in graded_rank(VermaParams.rational(c, h), n_max).levels)


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
    c = central_charge(ell)
    h = highest_weight(ell, label.m, label.n)
    if p == 2:
        raise DegenerateParams(f"(c, h) = ({c}, {h}) does not reduce mod 2; no naive mod-p module")
    over_p = graded_rank(VermaParams.mod_p(c, h, p), n_max).levels
    levels = tuple((n, rq, rp) for (n, _, rp), rq in zip(over_p, _rational_ranks(c, h, n_max)))
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
    _build_levels(params, n_max)
    dets = []
    ok = True
    for n in range(1, n_max + 1):
        # det G_n = det S_n / D^(n p(n)), as S_n = D^n G_n is p(n) x p(n)
        scaled = DenseMatrix(QQ, params._levels[n])
        d = determinant(scaled) / params._scale ** (n * scaled.rows)
        dets.append((n, d))
        if (d == 0) != (n >= d_min):
            ok = False
    return VanishingReport(label, d_min, n_max, tuple(dets), ok)
