"""Verma-module engine: PBW normal ordering, Gram matrices, rank probes.

Basis monomials L_{-a1}...L_{-ak} v are indexed by partitions (a1 >= ... >= ak).
Positive modes are commuted rightward with
[L_m, L_n] = (m-n) L_{m+n} + delta_{m+n,0} * (1/2) * binom(m+1, 3) * C,
annihilating the highest-weight vector; L0 acts on a degree-d monomial as
h + d, and C as c.  The commutator cascade of L_k on a monomial does not
depend on (c, h): only its leaves, where L_k meets L_{-k}, do.  So
`_lower` computes each image once per process with the scalars left
symbolic, and every parameter set, over either field, evaluates it at its
own (c, h).

Gram matrices are built by recursion on level.  Moving the leading mode of
the left monomial across the contravariant form gives
G_n[mu, lam] = sum_q (L_{mu_1} lam)_q * G_{n-mu_1}[mu minus mu_1, q],
so level n needs one image per (mu_1, lam) and the rows of lower
levels.  Each parameter set keeps the rows of every level it has finished,
so asking for levels one at a time builds each level once.

Both fields run one engine on plain ints and a modulus; the field tag of
a parameter set only names the field of its matrices.  Each parameter set
fixes a scale D: over QQ, D = lcm(den h, 2 den c), so D*h and D*c/2 are
integers; over F_p, D = 1 and c/2 is c * 2^-1 mod p.  Commuting L_k
rightward through a monomial meets at most one (c, h) scalar per term,
where L_k meets L_{-k}; every other structure constant is an integer.  So
each coefficient of D * (L_k monomial) is the integer
a*D + b*(D h) + e*(D c/2), with (a, b, e) from `_lower`, reduced mod p
over F_p.  Levels are kept as S_n = D^n G_n,
built without a gcd by the recursion above times D^n:
S_n[mu, lam] = sum_q (D L_{mu_1} lam)_q * D^(mu_1 - 1) * S_{n-mu_1}[mu minus mu_1, q].
`gram_matrix` divides by D^n; ranks are taken on S_n, since scaling a row
by a nonzero number keeps the rank.

Over QQ, `graded_rank` first ranks each G_n mod `exact._CERT_PRIME` from
its row space, as over F_p below.  Reduction mod p is a ring map on
Z[h, c/2], so full rank mod p proves full rank over QQ, and such a level is
not built.  From the first level left short, or from level 0 when c or h
has no image mod p or when the parameter set holds the levels already (as
after `gram_matrix`), the levels are built, and a radical pass, started with
K = 0 as the levels below have full rank, carries an integer basis K_n of
the radical ker S_n up the levels, on three facts.
The radical is a submodule, so L_{-1} K_{n-1} and L_{-2} K_{n-2} lie in
ker S_n.  U(Vir^-) is generated by L_{-1} and L_{-2}, so those images span
the radical at level n except for new singular vectors (Feigin-Fuchs: at
minimal points only the levels mn and (l+1-m)(l+2-n) bring any).  And if
kernel vectors K have an invertible minor on columns P, then, S_n being
symmetric, the rows and columns in P are combinations of those in the
complement C, so rank S_n = rank S_n[C, C] = |C| - dim ker S_n[C, C],
and a null vector of S_n[C, C] extended by zero on P lies in ker S_n.

K_n is kept in trailing form: no two vectors end (have their last nonzero
entry) at the same column.  Each image is reduced over Z against the kept
vector ending where it does, until it ends at a new column or vanishes, so
the kept vectors are triangular on the columns P where they end.  The null
vectors of S_n[C, C] from `exact.kernel` each end at their own free column.
Level n reads only K_{n-1} and K_{n-2}, so `graded_rank` carries the
radical up in one pass per call and keeps no other level of it.

Over F_p, `graded_rank` and the probe build no Gram level.  Row mu of G_n
is lam -> vac(L_{mu_k}...L_{mu_1} lam), and for odd p, L_1 and L_2 generate
Vir^+ ([L_m, L_1] = (m-1) L_{m+1}, [L_{m-1}, L_2] = (m-3) L_{m+1}, and p
cannot divide both m-1 and m-3), so the row space R_n of G_n is
R_{n-1} L_1 + R_{n-2} L_2, R_0 = span{(1)}, (f L_k)[lam] = sum_q (L_k lam)_q f[q].
`_ranks_mod_p` keeps a basis of each R_j by columns, as a block of
`exact._row_space_mod_p`: column q is one int packing the basis vectors'
residues at q.  So a candidate column costs one big-int multiply-add per
term of L_1 lam and L_2 lam (`_generators`), and each of its entries sums
at most p(n_max-1) products of two residues.  `_row_space_mod_p` eliminates
the candidates unreduced and returns rank G_n and a basis of R_n in
residues (the identity at full rank), so one slot width serves the tower:
it holds such a sum plus (p-1)^2 for each of at most p(n_max) pivots.
From level 2 on, L_1's matrix is in echelon form: row q (of
partitions(n-1)) is zero before column (q1+1, q2, ...) and holds the
integer q1 + 2 there.  So for p > n + 1 an echelon basis of R_{n-1} maps
to an echelon block of R_{n-1} L_1 with as many rows, and
rank_p G_n >= rank_p G_{n-1}.  A probe needs
p to divide neither denominator of (c, h), so S_n mod p is a unit times the
F_p Gram matrix (reduction mod p is a ring map on Z[h, c/2]).  Its rank
over QQ is chi_n, the level-n coefficient of the irreducible character
(Rocha-Caridi 1985), which `character` sums from partition counts, as at
(c_l, h_{m,n}) the radical is the maximal submodule (Feigin-Fuchs 1984).
Reduction mod p only loses rank, so rank_p S_n > chi_n is a fault of the
engine or of the character.

The Kac-vanishing check asks only whether each det S_n is zero, and builds
no Gram level.  A level of full rank mod `_CERT_PRIME` is regular.  L_1
and L_2 generate Vir^+ over QQ too, so R_n = R_{n-1} L_1 + R_{n-2} L_2 as
above, and w lies in the radical ker S_n exactly when L_1 w lies in ker
S_{n-1} and L_2 w in ker S_{n-2}.  At the first short level n0 the levels
below are regular, so ker S_{n0} is the null space of D L_1 over D L_2
(`_raised`), the singular vectors, and `kernel` gives one, w_{n0}.  Above
n0, w_n = L_{-1} w_{n-1} is nonzero in a Verma module, and L_1 L_{-1} =
L_{-1} L_1 + 2 L_0 and L_2 L_{-1} = L_{-1} L_2 + 3 L_1 make L_1 w_n a
multiple of w_{n-1} and L_2 w_n one of w_{n-2} (zero at n0 + 1), so w_n
lies in the radical.  The check tests both multiples exactly, and a level
where a test fails, or where no null vector is found, is built and settled
by `kernel` on S_n.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .exact import _CERT_PRIME, DenseMatrix, PrimeField, QQ, RationalField, _row_space_mod_p, kernel, reduce_mod_p
from .weights import MinimalLabel, central_charge, highest_weight

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically descending: by first part, each
    followed by the partitions of n - first with no larger part, in turn."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest for first in range(n, 0, -1) for rest in partitions(n - first) if not rest or rest[0] <= first
    )


class DegenerateParams(ValueError):
    """Central charge or highest weight has no image mod p."""


class VermaParams:
    """Central charge and highest weight in a concrete field."""

    def __init__(self, c, h, field_: RationalField | PrimeField = QQ):
        self.c, self.h, self.field_ = c, h, field_
        # images of positive modes, kept by the word oracle in the tests
        self._memo: dict = {}
        # S_0, S_1, ... as built
        self._levels: list = []
        # the engine's ints: the scale D, D*h and D*c/2, and the modulus (0 over QQ)
        if isinstance(field_, PrimeField):
            p = self._mod = field_.p
            self._scale, self._dh, self._dc2 = 1, h % p, c * pow(2, -1, p) % p
        else:
            c, h = Fraction(c), Fraction(h)
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
        residues = []
        for q in (c, h):
            r = reduce_mod_p(q, p)
            if r is None:
                raise DegenerateParams(f"{q} has no image mod {p}")
            residues.append(r)
        return cls(*residues, f)


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


@lru_cache(maxsize=None)
def _lower(k: int, part: Partition) -> tuple[tuple[Partition, int, int, int], ...]:
    """L_k (k > 0) on a basis monomial with (c, h) left symbolic: terms
    (q, a, b, e) with D * (L_k part)_q = a*D + b*(D h) + e*(D c/2), for
    every scale D.  The integers do not depend on (c, h), so one process-wide
    cache serves every parameter set and both fields."""
    out: dict[Partition, list[int]] = {}
    if part:
        a0, rest = part[0], part[1:]
        # L_k L_{-a0} X = L_{-a0} (L_k X) + [L_k, L_{-a0}] X
        for q, a, b, e in _lower(k, rest):
            for q2, s in _prepend(a0, q):
                t = out.setdefault(q2, [0, 0, 0])
                t[0] += s * a
                t[1] += s * b
                t[2] += s * e
        m2 = k - a0
        coeff = k + a0
        if m2 > 0:
            for q, a, b, e in _lower(m2, rest):
                t = out.setdefault(q, [0, 0, 0])
                t[0] += coeff * a
                t[1] += coeff * b
                t[2] += coeff * e
        elif m2 < 0:
            for q, s in _prepend(-m2, rest):
                out.setdefault(q, [0, 0, 0])[0] += coeff * s
        else:
            # 2k L0 + (1/2) binom(k+1, 3) C; both act as scalars
            t = out.setdefault(rest, [0, 0, 0])
            t[0] += coeff * sum(rest)
            t[1] += coeff
            t[2] += comb(k + 1, 3)
    return tuple((q, a, b, e) for q, (a, b, e) in out.items() if a or b or e)


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[Partition, int]:
    """Index of each partition of n in `partitions(n)`."""
    return {part: i for i, part in enumerate(partitions(n))}


# Gram levels m >= 1 built so far, and their total entries, over either
# field.  `virmod reproduce-paper --timings` reports each check's share.
GRAM_BUILDS = {"levels": 0, "entries": 0}


def _build_levels(params: VermaParams, n: int) -> None:
    """Append S_m = D^m G_m for the levels `params` lacks, through level n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    levels = params._levels
    if not levels:
        levels.append(((1,),))
    d, dh, dc2, p = params._scale, params._dh, params._dc2, params._mod
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
                    image = [(pos[q], (a * d + b * dh + e * dc2) * dk) for q, a, b, e in _lower(k, lam)]
                    if p:
                        image = [(at, s % p) for at, s in image]
                    images[k] = image
                total = 0
                for idx, s in image:
                    total += s * lower[idx]
                rows[i][j] = rows[j][i] = total % p if p else total
        levels.append(tuple(map(tuple, rows)))
        GRAM_BUILDS["levels"] += 1
        GRAM_BUILDS["entries"] += len(basis) ** 2


def gram_matrix(params: VermaParams, n: int) -> DenseMatrix:
    """Contravariant-form matrix at degree n over the partition basis.

    Entry (mu, lambda) is the vacuum coefficient of L_{mu_k}...L_{mu_1}
    applied to the lambda monomial (rightmost factor, the largest part,
    acts first).  It is S_n / D^n, with S_n built by the level recursion in
    the module docstring from the levels 0..n-1, which `params` keeps: a
    later call on the same params builds only the levels it lacks.
    """
    _build_levels(params, n)
    rows = params._levels[n]
    if not params._mod:
        scale = params._scale**n
        rows = tuple(tuple(Fraction(x, scale) for x in row) for row in rows)
    return DenseMatrix(params.field_, rows)


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[list[list[tuple[int, int, int, int]]], ...]:
    """For k = 1, 2, the terms of `_lower(k, lam)` on each partition lam of
    n >= 1, as (a, b, e, at) with at the position of q in partitions(n - k);
    read only."""
    return tuple(
        [[(a, b, e, at[q]) for q, a, b, e in _lower(k, lam)] for lam in partitions(n)]
        for k, at in ((1, _positions(n - 1)), (2, _positions(max(n - 2, 0))))
    )


def _ranks_mod_p(p: int, h: int, c2: int, n_max: int):
    """Yield rank G_n over F_p at residues h, c/2 for n = 0..n_max, from row spaces (module docstring)."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    # a candidate entry's largest sum, plus (p-1)^2 per pivot of its elimination
    bound = (len(partitions(max(n_max - 1, 0))) + len(partitions(n_max)) + 1) * (p - 1) ** 2 + p
    yield 1
    below = ((1, [1]), (0, []))  # R_{n-1} and R_{n-2}, as blocks of `_row_space_mod_p`
    for n in range(1, n_max + 1):
        blocks = []  # R_{n-1} L_1 and R_{n-2} L_2
        for (r, cols), images in zip(below, _generators(n)):
            block = []
            for terms in images:
                x = 0
                for a, b, e, at in terms:
                    x += (a + b * h + e * c2) % p * cols[at]
                block.append(x)
            blocks.append((r, block))
        rank, basis = _row_space_mod_p(*blocks, p, bound, n < n_max)
        yield rank
        below = ((rank, basis), below[0])


class GramReport(namedtuple("GramReport", "levels")):
    """`levels` holds one (degree, verma dim p(N), rank) per level."""

    __slots__ = ()


def graded_rank(params: VermaParams, n_max: int) -> GramReport:
    """Per-level Gram ranks (of S_n): the graded dimension of the irreducible quotient."""
    if params._mod:
        ranks = list(_ranks_mod_p(params._mod, params._dh, params._dc2, n_max))
    else:
        ranks = [r for r, _ in _radical_levels(params, n_max)]
    return GramReport(tuple((n, len(partitions(n)), r) for n, r in enumerate(ranks)))


def _lowered(a: int, v: list[int], n: int) -> list[int]:
    """L_{-a} v, for v dense over `partitions(n - a)`, dense over `partitions(n)`."""
    pos = _positions(n)
    image = [0] * len(pos)
    for part, x in zip(partitions(n - a), v):
        if x:
            for q, s in _prepend(a, part):
                image[pos[q]] += s * x
    return image


def _last(v: list[int]) -> int:
    """The index of the last nonzero entry of v, -1 when v is zero."""
    j = len(v) - 1
    while j >= 0 and not v[j]:
        j -= 1
    return j


def _minor(level: tuple[tuple[int, ...], ...], cols: list[int]) -> tuple[tuple[int, ...], ...]:
    """The principal submatrix of a level on `cols`, ascending."""
    if len(cols) == len(level):
        return level
    return tuple(tuple(map(level[i].__getitem__, cols)) for i in cols)


def _first_short_level(params: VermaParams, n_max: int) -> int:
    """The first level n <= n_max where G_n has rank below p(n) mod
    `_CERT_PRIME`, from its row space; n_max + 1 when no level does, and 0
    when c or h has no image mod p.  Reduction mod p is a ring map on
    Z[h, c/2], so each level below has full rank over QQ."""
    p, d = _CERT_PRIME, params._scale
    if d % p == 0:
        return 0
    inv = pow(d, -1, p)
    for n, r in enumerate(_ranks_mod_p(p, params._dh * inv % p, params._dc2 * inv % p, n_max)):
        if r < len(partitions(n)):
            return n
    return n_max + 1


def _radical_levels(params: VermaParams, n_max: int):
    """Yield (rank S_n, K_n) for n = 0..n_max over QQ: K_n an integer basis
    of ker S_n as dense vectors over `partitions(n)`, in trailing form,
    built from K_{n-1} and K_{n-2} alone as the module docstring says.  Below
    `_first_short_level`, each level yields (p(n), []), unless `params` holds
    the levels through n_max: then the pass runs from 0."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    start = _first_short_level(params, n_max) if len(params._levels) <= n_max else 0
    for n in range(start):
        yield len(partitions(n)), []
    if start > n_max:
        return
    _build_levels(params, n_max)
    below = ([], [])  # K_{n-1} and K_{n-2}, empty below the first short level
    for n in range(start, n_max + 1):
        size = len(partitions(n))
        trailing: dict[int, list[int]] = {}  # each vector of K_n by its last nonzero column
        for a, lower in zip((1, 2), below):
            for v in lower:
                w = _lowered(a, v, n)
                j = _last(w)
                while j in trailing:
                    k = trailing[j]
                    g = gcd(k[j], w[j])
                    s, t = k[j] // g, w[j] // g
                    w = [s * x - t * y for x, y in zip(w[:j], k)]  # zero from column j on
                    g = gcd(*w)
                    w = [x // g for x in w] if g > 1 else w
                    j = _last(w)
                if j >= 0:
                    trailing[j] = w + [0] * (size - len(w))
        free = [j for j in range(size) if j not in trailing]
        null = kernel(_minor(params._levels[n], free))
        for w in null:
            v = dict(zip(free, w))
            trailing[free[_last(w)]] = [v.get(j, 0) for j in range(size)]
        basis = list(trailing.values())
        yield len(free) - len(null), basis
        below = (basis, below[0])


def _point(ell: int, label: MinimalLabel) -> tuple[Fraction, Fraction]:
    """(c, h) at a label of ell; a label of another ell raises ValueError."""
    if label.ell != ell:
        raise ValueError(f"label {label.m},{label.n} is at ell = {label.ell}, not {ell}")
    return central_charge(ell), highest_weight(ell, label.m, label.n)


def character(ell: int, label: MinimalLabel, n_max: int) -> list[int]:
    """Level coefficients 0..n_max of the irreducible character at a label of
    ell (Rocha-Caridi 1985): q^-h chi = (1/phi(q)) sum_k (q^a_k(n) - q^a_k(-n)),
    a_k(s) = ((2pp'k + pm - p's)^2 - (pm - p'n)^2) / (4pp'), p = l+2, p' = l+1.
    A label of another ell, or a negative n_max, raises ValueError."""
    _point(ell, label)
    if n_max < 0:
        raise ValueError("n must be >= 0")
    p, pp, m, n = ell + 2, ell + 1, label.m, label.n
    # a_k(s) >= pp'((|k|-1)^2 - 1/4), as |pm - p's| < 2pp', so only |k| <= K add terms
    K = isqrt((4 * n_max + p * pp) // (4 * p * pp)) + 1
    shifts = [
        (((2 * p * pp * k + p * m - pp * s) ** 2 - (p * m - pp * n) ** 2) // (4 * p * pp), sign)
        for k in range(-K, K + 1) for s, sign in ((n, 1), (-n, -1))
    ]
    counts = [len(partitions(j)) for j in range(n_max + 1)]
    return [sum(sign * counts[N - e] for e, sign in shifts if e <= N) for N in range(n_max + 1)]


class ProbeVerdict(namedtuple("ProbeVerdict", "label p n_max levels verdict drop_level")):
    """`levels` holds one (degree, chi_n, rank mod p) per level; `verdict` is
    "consistent", or "rank-drop" or "fault" at `drop_level` (else None), the
    first level where the rank mod p is below chi_n, or above it."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def irreducibility_probe(ell: int, label: MinimalLabel, p: int, n_max: int = 8) -> ProbeVerdict:
    """Compare graded Gram ranks over QQ and over F_p at a minimal-series point.

    Equal ranks at every level are evidence that reduction mod p preserves
    the irreducible quotient at this truncation.  The rank over QQ is the
    character's coefficient chi_n, and the rank mod p that of G_n over F_p
    at (c, h) mod p, from its row space, as the module docstring explains.
    """
    c, h = _point(ell, label)
    if p == 2:
        raise DegenerateParams(f"(c, h) = ({c}, {h}) does not reduce mod 2; no naive mod-p module")
    params = VermaParams.mod_p(c, h, p)  # raises unless c and h reduce mod p
    chi = character(ell, label, n_max)
    levels = tuple(zip(range(n_max + 1), chi, list(_ranks_mod_p(params._mod, params._dh, params._dc2, n_max))))
    faults = [n for n, rq, rp in levels if rp > rq]
    drops = [n for n, rq, rp in levels if rp < rq]
    verdict = "fault" if faults else "rank-drop" if drops else "consistent"
    return ProbeVerdict(label, p, n_max, levels, verdict, (faults or drops or [None])[0])


class VanishingReport(namedtuple("VanishingReport", "label d_min n_max levels passed")):
    """`levels` holds one (degree, singular) per level 1..n_max, singular
    when the Gram determinant there is 0."""

    __slots__ = ()


def _raised(params: VermaParams, w: list[int], n: int) -> list[list[int]]:
    """D L_1 w and D L_2 w, for w dense over `partitions(n)`, n >= 1: each
    dense over `partitions(n - k)`, read off `_generators`, and D L_2 w
    empty at n = 1."""
    d, dh, dc2 = params._scale, params._dh, params._dc2
    images = []
    for k, terms_of in zip((1, 2), _generators(n)):
        image = [0] * (len(partitions(n - k)) if n >= k else 0)
        for x, terms in zip(w, terms_of):
            if x:
                for a, b, e, at in terms:
                    image[at] += (a * d + b * dh + e * dc2) * x
        images.append(image)
    return images


def _multiple(u: list[int], v: list[int] | None) -> bool:
    """Whether u is a rational multiple of v, or zero when v is None."""
    if v is None:
        return not any(u)
    i = _last(v)
    return all(x * v[i] == y * u[i] for x, y in zip(u, v))


def kac_vanishing_check(ell: int, label: MinimalLabel, n_max: int = 8) -> VanishingReport:
    """Cross-check the Gram engine against the classical vanishing locus.

    At (c_l, h_{m,n}) the level-N Gram determinant over QQ must vanish for
    N >= d_min = min(m*n, (l+1-m)(l+2-n)) and be nonzero below.  The label
    is any label of ell: its mirror (l+1-m, l+2-n) names the same point and
    has the same d_min, so both give the same report but for the label.
    Whether det S_n is zero is decided without building S_n, as the module
    docstring says.  Below `_first_short_level` each level is regular.  From
    there a nonzero w proves det S_n = 0 when D L_1 w is a multiple of a
    vector known in ker S_{n-1} (zero if none is) and D L_2 w one of a vector
    known in ker S_{n-2}: a null vector of D L_1 over D L_2 where no vector
    is known at n - 1, else L_{-1} of that vector.  A level without such a w,
    as when c or h has no image mod p, when p divides det S_n at the first
    short level, or on a fault of the engine, is built and settled by
    `kernel`, so every flag is (det S_n == 0) exactly.
    """
    d_min = min(label.m * label.n, (ell + 1 - label.m) * (ell + 2 - label.n))
    params = VermaParams.rational(*_point(ell, label))
    n0 = max(_first_short_level(params, n_max), 1)
    levels = [(n, False) for n in range(1, n0)]
    below = (None, None)  # vectors known in ker S_{n-1} and ker S_{n-2}, None where none is
    for n in range(n0, n_max + 1):
        if below[0] is None:  # D L_1 over D L_2, by columns: the images of the basis vectors
            size = len(partitions(n))
            columns = [sum(_raised(params, [int(i == j) for i in range(size)], n), []) for j in range(size)]
            null = kernel(list(zip(*columns)))
            w = list(null[0]) if null else None
        else:
            w = _lowered(1, below[0], n)
        if not (w and any(w) and all(map(_multiple, _raised(params, w, n), below))):
            _build_levels(params, n)
            null = kernel(params._levels[n])
            w = list(null[0]) if null else None
        levels.append((n, w is not None))
        below = (w, below[0])
    ok = all(singular == (n >= d_min) for n, singular in levels)
    return VanishingReport(label, d_min, n_max, tuple(levels), ok)
