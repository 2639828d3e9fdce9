"""Exact numeric substrate: rationals, prime fields, dense linear algebra.

Rationals are `fractions.Fraction` (always stored reduced, arbitrary
precision).  Prime-field elements are plain ints in [0, p-1].  All linear
algebra is exact, and runs through one elimination, `_echelon_mod_p`, on
rows of ints.  `kernel` and `determinant` work over QQ on the integer rows
their callers hold: every Gram level the engine builds is already the
integer matrix S_n = D^n G_n, so no denominators are cleared.

`rank` serves F_p only, on a `DenseMatrix` of residues tagged with a
`PrimeField` holding p (a `QQ` tag raises); callers compute in ints and
reduce mod p themselves.  QQ ranks come from `virasoro.graded_rank` for Gram levels,
and from `kernel` otherwise, as columns less the kernel dimension.  The
tag and `DenseMatrix` stay only because the benchmark's tracer,
`bench/spans.py`, names its rank span by the tag, reads `rows` and `cols`,
and rebinds `determinant`; they go with ROADMAP items 1 and 2.

`kernel` eliminates only mod primes below 2^26, descending from
`_CERT_PRIME`, and checks its answer over Z.  Full column rank mod the
first proves the null space zero, reduction mod p being a ring map.
Otherwise each prime's reduced echelon form gives, per free column f, the
null vector 1 at f and 0 at the other free columns, ending at f.  No prime
beats QQ on rank, nor at equal rank on a lexicographically smaller pivot
list (a pivot is a column raising the rank of those before it).  The
vectors of the best primes so far are combined by CRT, rationally
reconstructed and accepted once M v = 0 exactly: ncol - rank_p >= dim ker M
vectors ending at distinct columns span ker M, and a column is free exactly
when some kernel vector ends there, so they are the basis over QQ.

The loop ends by a bound.  Let H be the product of the norms of the nonzero
rows and P that of the primes sharing the best key so far.  Fix rows R and
the QQ pivot columns C with det M[R, C] != 0: a prime not dividing it keeps
the columns C independent, hence has the QQ rank on every leading set of
columns and the QQ key.  So the primes of a wrong best key divide that
minor, and P <= H by Hadamard.  Under the QQ key each basis entry is, by
Cramer, a ratio of two minors of at most H, which rational reconstruction
recovers once P > 2H^2.  Past 2H^2, then, a failing M v = 0 means a faulty
elimination mod p, and `kernel` raises.  The bound is read off row bit
lengths: entries below 2^b give a squared norm below
2^(2b + bit length of ncol).

`determinant` reads det mod p off the same elimination: row swaps and
adding multiples of one row to another turn a square matrix into a
triangular one whose diagonal holds the pivots, so det is the signed
pivot product mod p when every column has a pivot, and 0 mod p otherwise.
The residues mod the primes of `kernel` are combined by CRT until their
product P passes 2H, H as above.  By Hadamard |det| <= H < P/2, so det is
the residue of least absolute value mod P.

Every elimination mod p packs each row into one int, a fixed-width slot
per column (1, 2, 4 or 8 bytes unless p is large, filled by one `struct`
call), so that a row update is one big-int multiply-add with no reduction
of the updated row.  No randomness, no floats.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt, lcm
from operator import mul
from struct import Struct

# Largest prime below 2^26: a certificate up to 4095 columns, hence every
# Gram level to cli.LEVEL_MAX (627 columns), packs into 8-byte slots.  A
# smaller prime gives up nothing exact: a rank it misses only sends the rows
# to the multi-modular kernel.
_CERT_PRIME = 67108859

# The primes of `kernel` and `determinant`, descending from `_CERT_PRIME`,
# grown by `_moduli` as they need more
_MODULI = [_CERT_PRIME]

# struct codes of the slot widths, in bytes, that are plain unsigned ints
_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Eliminations run so far, by path: kernel certificates mod `_CERT_PRIME`,
# F_p ranks, kernels past their certificate (multi-modular) and
# determinants (one per call that eliminates, whatever its number of primes).
# `virmod reproduce-paper --timings` reports each check's share.
ELIMINATIONS = {"mod-cert-prime": 0, "fp-rank": 0, "multi-modular": 0, "determinant": 0}


def is_prime(n: int) -> bool:
    """Trial division; the program's one primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def reduce_mod_p(q: Fraction, p: int) -> int | None:
    """Reduce a rational mod an odd prime p.

    The residue num * den^-1 mod p, or None when p divides the reduced
    denominator.  p = 2 is rejected: the scalar normalization upstream
    carries factors of 1/2, and characteristic 2 is handled by fiat in the
    prime classifier.
    """
    if p <= 2:
        raise ValueError("reduction requires an odd prime")
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, p) % p


class RationalField:
    """The field tag of matrices over the rationals."""

    def __repr__(self) -> str:
        return "QQ"


class PrimeField(namedtuple("PrimeField", "p")):
    """The field tag of matrices mod p, p an odd prime."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("prime field requires an odd prime")
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()


class DenseMatrix(namedtuple("DenseMatrix", "field entries")):
    """Rectangular matrix over QQ (Fraction or int entries) or GF(p) (int
    entries): `field` is `QQ` or a `PrimeField`, `entries` a tuple of rows."""

    __slots__ = ()

    def __new__(cls, field: RationalField | PrimeField, entries: tuple[tuple, ...]):
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        return super().__new__(cls, field, entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _moduli():
    """The primes of `_MODULI` in order, endlessly: past its end each next
    prime below the last is appended."""
    for i in count():
        if i == len(_MODULI):
            _MODULI.append(next(n for n in range(_MODULI[-1] - 2, 2, -2) if is_prime(n)))
        yield _MODULI[i]


def _hadamard_bits(m: Sequence[Sequence[int]]) -> int:
    """A bit count S with H^2 < 2^S, H the product of the norms of the
    nonzero integer rows `m`, read off their bit lengths."""
    ncol = len(m[0]) if m else 0
    bits = [max(map(abs, row), default=0).bit_length() for row in m]
    return sum(2 * b + ncol.bit_length() for b in bits if b)


def rank(M: DenseMatrix) -> int:
    """Rank of a matrix over F_p.  Over QQ it raises ValueError: Gram levels
    take their rank from `virasoro.graded_rank`, other matrices from `kernel`."""
    if not isinstance(M.field, PrimeField):
        raise ValueError("rank is provided over prime fields only")
    ELIMINATIONS["fp-rank"] += 1
    return len(_echelon_mod_p(M.entries, M.field.p)[0])


def _rational_vector(v: list[int], modulus: int) -> tuple[int, ...] | None:
    """v read as fractions mod `modulus` (extended Euclid, numerators and
    denominators up to sqrt(modulus / 2)) and scaled by their common
    denominator, which leaves an entry 1 primitive; None if one has none."""
    bound = isqrt(modulus >> 1)
    fracs = []
    for x in v:
        r0, r1, t0, t1 = modulus, x, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not 0 < abs(t1) <= bound:
            return None
        fracs.append(Fraction(r1, t1))
    d = lcm(*(q.denominator for q in fracs))
    return tuple(q.numerator * (d // q.denominator) for q in fracs)


def kernel(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the null space {v : M v = 0} of the matrix M of integer
    `rows` over QQ, in primitive integer vectors: one per free column f of
    the reduced echelon form, positive at f and zero at the other free
    columns.

    The rows are certified mod `_CERT_PRIME`, then eliminated mod the primes
    of `_MODULI`, as the module docstring says; past its bound a faulty
    elimination raises RuntimeError.
    """
    ncol = len(rows[0]) if rows else 0
    best = None  # the (-rank, pivot columns) of the primes combined
    for p in _moduli():
        pivots, tails, _ = _echelon_mod_p(rows, p)
        if best is None:
            ELIMINATIONS["mod-cert-prime"] += 1
            if len(pivots) == ncol:
                return []
            ELIMINATIONS["multi-modular"] += 1
            bound_bits = 1 + _hadamard_bits(rows)  # 2H^2 < 2^bound_bits
        key = (-len(pivots), pivots)
        free = sorted(set(range(ncol)) - set(pivots))
        if best is None or key < best:
            best, modulus, vecs = key, 1, [[0] * ncol for _ in free]
        elif key > best:
            continue
        lift = pow(modulus, -1, p)
        for f, v in zip(free, vecs):
            w = [0] * ncol  # the null vector mod p, solved up from the last pivot
            w[f] = 1
            for c, tail in zip(reversed(pivots), reversed(tails)):
                if c < f:
                    w[c] = sum(map(mul, _unpack(tail, ncol - 1 - c), w[c + 1 : f + 1])) % p
            v[:] = [x + modulus * ((r - x) * lift % p) for x, r in zip(v, w)]
        modulus *= p
        out = [_rational_vector(v, modulus) for v in vecs]
        if None not in out and not any(sum(map(mul, row, w)) for w in out for row in rows):
            return out
        if modulus.bit_length() > bound_bits:
            raise RuntimeError("kernel: faulty elimination mod p, as M v = 0 fails past the Hadamard bound")


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of the square matrix of integer `rows`.

    The determinants mod the primes of `_MODULI`, read off `_echelon_mod_p`,
    are combined by CRT past twice the Hadamard bound of the rows, as the
    module docstring says.  The 0 x 0 matrix gives 1, and a zero row gives
    0 without elimination.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    if not rows:
        return 1
    if not all(map(any, rows)):
        return 0
    ELIMINATIONS["determinant"] += 1
    bound_bits = (_hadamard_bits(rows) + 1) // 2 + 1  # 2H < 2^bound_bits
    det, modulus = 0, 1
    for p in _moduli():
        det += modulus * ((_echelon_mod_p(rows, p)[2] - det) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus.bit_length() > bound_bits:
            break
    return det - modulus if 2 * det > modulus else det


@lru_cache(maxsize=1024)
def _slots(n: int, nb: int) -> Struct:
    """The big-endian struct of n slots of nb bytes: one unsigned int code
    (`B`, `H`, `I`, `Q`) for nb in 1, 2, 4, 8, else one nb-byte chunk each."""
    code = _INT_CODES.get(nb)
    return Struct(f">{n}{code}" if code else ">" + f"{nb}s" * n)


def _pack(vals: Sequence[int], nb: int) -> bytes:
    """Non-negative ints in big-endian slots of nb bytes, by one struct call."""
    if nb not in _INT_CODES:
        vals = [x.to_bytes(nb, "big") for x in vals]
    return _slots(len(vals), nb).pack(*vals)


def _unpack(data: bytes, n: int) -> Sequence[int]:
    """The n ints that `_pack` put in `data`."""
    nb = len(data) // n if n else 1
    vals = _slots(n, nb).unpack(data)
    return vals if nb in _INT_CODES else [int.from_bytes(x, "big") for x in vals]


def _echelon_mod_p(m: Sequence[Sequence[int]], p: int) -> tuple[list[int], list[bytes], int]:
    """Row echelon form mod p of the integer rows `m`, which stay unchanged;
    the rank is the number of pivots.

    Returns the pivot columns, ascending: each column's pivot is the first
    remaining row nonzero there mod p.  With them come the pivot tails,
    packed by `_pack`: for the pivot at column c, the residues of its
    echelon row at columns c+1, c+2, ... scaled by -1/pivot.  Last comes
    the signed product of the pivots mod p, the determinant mod p of a
    square `m` with a pivot in every column, and 0 for any other `m`.

    Each row is packed into one int, column j in slot ncol-1-j (the first
    column on top).  Slots start as residues below p.  A pivot row is
    unpacked, reduced, scaled by -1/pivot and repacked into residues; adding
    f times it to a row (f < p) adds at most (p-1)^2 to each slot, once per
    pivot, so with k = min(rows, cols) no slot reaches (k+1)(p-1)^2 + p, and
    a slot of nb bytes holding that bound never carries into the next.
    Updated rows lose the finished column and those above it, so they
    shrink as the elimination proceeds.

    The slot is the smallest of 1, 2, 4 and 8 bytes that holds the bound,
    so each row is packed, and each pivot tail unpacked and repacked, by one
    struct call on its residues.  For p below 2^26 the bound fits 8 bytes up
    to k = 4095; a larger bound takes nb-byte chunks, each converted to and
    from an int on its own.
    """
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    bound = (min(nrow, ncol) + 1) * (p - 1) ** 2 + p
    nb = next((b for b in _INT_CODES if bound >> 8 * b == 0), (bound.bit_length() + 7) // 8)
    width = 8 * nb
    slot = (1 << width) - 1
    rows = [int.from_bytes(_pack([x % p for x in row], nb), "big") for row in m]
    pivots: list[int] = []
    tails: list[bytes] = []
    det = 1
    for col in range(ncol):
        r = len(pivots)
        sh = width * (ncol - 1 - col)
        piv = next((i for i in range(r, nrow) if (rows[i] >> sh & slot) % p), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        pivots.append(col)
        top = rows[r]
        lead = (top >> sh & slot) % p
        det = det * lead % p
        scale = -pow(lead, -1, p)
        below = (1 << sh) - 1
        vals = _unpack((top & below).to_bytes(sh // 8, "big"), ncol - 1 - col)
        tails.append(_pack([scale * x % p for x in vals], nb))
        if r + 1 == nrow:
            break
        neg = int.from_bytes(tails[-1], "big")
        for i in range(r + 1, nrow):
            row = rows[i]
            f = (row >> sh & slot) % p
            if f:
                rows[i] = (row + f * neg) & below
    return pivots, tails, det if nrow == ncol == len(pivots) else 0
