"""Exact numeric substrate: rationals, prime fields, dense linear algebra.

Rationals are `fractions.Fraction` (always stored reduced, arbitrary
precision).  Prime-field elements are plain ints in [0, p-1].  A matrix
carries a field tag, `QQ` or a `PrimeField` holding the modulus p, and no
scalar operations: callers compute in ints and reduce mod p themselves.
All linear algebra is exact.  Over the rationals, rows are cleared of
denominators (rows of ints pass through as they are).  The determinant goes
through fraction-free (Bareiss) elimination on those rows divided by their
content, the product of the contents multiplied back into the result.
`rank` serves F_p only; QQ ranks of Gram levels come from
`virasoro.graded_rank`, and of any other matrix from `kernel`, as the
number of columns less the kernel dimension.  `kernel` first certifies the
integer rows mod the fixed prime `_CERT_PRIME`: reduction mod p is a ring
map, so a minor nonzero mod p is nonzero over Z, and full column rank mod p
proves the null space zero over QQ.  Only when it falls short are the rows
divided by their content and a basis found by integer Gauss-Jordan
elimination.  Every elimination mod p packs each row into one int, a
fixed-width slot per column (1, 2, 4 or 8 bytes unless p is large, filled
by one `struct` call), so that a row update is one big-int multiply-add
with no reduction of the updated row.  No randomness, no floats.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from struct import Struct

# Largest prime below 2^26: a certificate up to 4095 columns, hence every
# Gram level to cli.LEVEL_MAX (627 columns), packs into 8-byte slots.  A
# smaller prime gives up nothing exact: a rank it misses only sends the rows
# to the Gauss-Jordan fallback.
_CERT_PRIME = 67108859

# struct codes of the slot widths, in bytes, that are plain unsigned ints
_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Eliminations run so far, by path: a certificate or image selection mod
# `_CERT_PRIME`, an F_p rank, the Gauss-Jordan fallback of `kernel`, and
# Bareiss (`determinant`).  `virmod reproduce-paper --timings` reports each
# check's share.
ELIMINATIONS = {"mod-cert-prime": 0, "fp-rank": 0, "gauss-jordan": 0, "bareiss": 0}


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


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination on an integer matrix.

    Returns (rank, det) where det is the signed last pivot; det is only
    meaningful for square input (0 when rank-deficient).
    """
    ELIMINATIONS["bareiss"] += 1
    m = [row[:] for row in rows]
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    prev = 1
    sign = 1
    rank = 0
    for col in range(ncol):
        piv = next((i for i in range(rank, nrow) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for i in range(rank + 1, nrow):
            for j in range(col + 1, ncol):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrow:
            break
    det = sign * prev if (nrow == ncol and rank == nrow) else 0
    return rank, det


def _clear_denominators(M: DenseMatrix) -> tuple[list[Sequence[int]], int]:
    """Scale each row to integers; returns (int rows, product of row scales).

    A row of ints is passed through as it is, with scale 1.
    """
    out = []
    scale = 1
    for row in M.entries:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return out, scale


def _divide_content(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Each integer row divided by its content (the gcd of its entries), as
    new lists, and the product of the contents (0 when a row is zero)."""
    out = []
    content = 1
    for row in rows:
        g = gcd(*row)
        content *= g
        out.append([x // g for x in row] if g > 1 else list(row))
    return out, content


def independent_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """A maximal set of integer rows independent mod `_CERT_PRIME`, as
    (row index, pivot column) pairs, one pivot column per row.

    The chosen rows restricted to their pivot columns form a square matrix
    invertible mod the prime, hence over QQ, so they are independent over QQ
    too.  Rows that depend on them mod the prime need not depend on them
    over QQ.
    """
    ELIMINATIONS["mod-cert-prime"] += 1
    return _echelon_mod_p(rows, _CERT_PRIME)


def rank(M: DenseMatrix) -> int:
    """Rank of a matrix over F_p.  Over QQ it raises ValueError: Gram levels
    take their rank from `virasoro.graded_rank`, other matrices from `kernel`."""
    if not isinstance(M.field, PrimeField):
        raise ValueError("rank is provided over prime fields only")
    ELIMINATIONS["fp-rank"] += 1
    return len(_echelon_mod_p(M.entries, M.field.p))


def kernel(M: DenseMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space {v : M v = 0} of a QQ matrix in primitive
    integer vectors: one per free column f of the reduced echelon form,
    positive at f and zero at the other free columns.

    Full column rank mod `_CERT_PRIME` of the denominator-cleared rows
    proves the null space zero.  Otherwise integer Gauss-Jordan elimination
    runs on those rows divided by their content, each updated row divided
    by its content again, which keeps the entries near the size of the minors.
    """
    if not isinstance(M.field, RationalField):
        raise ValueError("kernel is provided over the rationals only")
    m, _ = _clear_denominators(M)
    ncol = M.cols
    if len(independent_rows(m)) == ncol:
        return []
    ELIMINATIONS["gauss-jordan"] += 1
    m, _ = _divide_content(m)
    pivots: list[int] = []  # pivots[i] is the pivot column of row i
    for col in range(ncol):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        a = top[col]
        for i, row in enumerate(m):
            b = row[col]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(m):
            break
    out = []
    for f in sorted(set(range(ncol)) - set(pivots)):
        scale = lcm(*(abs(m[i][c]) for i, c in enumerate(pivots) if m[i][f]))
        v = [0] * ncol
        v[f] = scale
        for i, c in enumerate(pivots):
            v[c] = -m[i][f] * scale // m[i][c]
        g = gcd(*v)
        out.append(tuple(x // g for x in v))
    return out


def determinant(M: DenseMatrix) -> Fraction:
    """Exact determinant of a square rational matrix.

    Bareiss runs on the denominator-cleared rows divided by their content,
    and the product of the contents is multiplied back in: the determinant
    is linear in each row, and the primitive rows keep Bareiss's entries
    small when the rows carry large common factors, as Gram levels scaled
    by D^n do.  A zero row gives 0 without elimination.
    """
    if not isinstance(M.field, RationalField):
        raise ValueError("determinant is provided over the rationals only")
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    if M.rows == 0:
        return Fraction(1)
    int_rows, scale = _clear_denominators(M)
    rows, content = _divide_content(int_rows)
    if not content:
        return Fraction(0)
    _, det = _bareiss(rows)
    return Fraction(det * content, scale)


@lru_cache(maxsize=1024)
def _slots(n: int, nb: int) -> Struct:
    """The big-endian struct of n slots of nb bytes: one unsigned int code
    (`B`, `H`, `I`, `Q`) for nb in 1, 2, 4, 8, else one nb-byte chunk each."""
    code = _INT_CODES.get(nb)
    return Struct(f">{n}{code}" if code else ">" + f"{nb}s" * n)


def _echelon_mod_p(m: Sequence[Sequence[int]], p: int) -> list[tuple[int, int]]:
    """Row echelon form mod p of the integer rows `m`, which stay unchanged;
    the rank is the length of the result.

    Returns one (row, column) pair per pivot, where `row` indexes the input:
    those rows restricted to the pivot columns form an invertible minor mod p.
    Each column's pivot is the first remaining row nonzero there mod p.

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
    wide = nb not in _INT_CODES
    width = 8 * nb
    slot = (1 << width) - 1
    pack = _slots(ncol, nb).pack
    if wide:
        rows = [int.from_bytes(pack(*[(x % p).to_bytes(nb, "big") for x in row]), "big") for row in m]
    else:
        rows = [int.from_bytes(pack(*[x % p for x in row]), "big") for row in m]
    order = list(range(nrow))
    pivots: list[tuple[int, int]] = []
    for col in range(ncol):
        r = len(pivots)
        sh = width * (ncol - 1 - col)
        piv = next((i for i in range(r, nrow) if (rows[i] >> sh & slot) % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        order[r], order[piv] = order[piv], order[r]
        pivots.append((order[r], col))
        if r + 1 == nrow:
            break
        top = rows[r]
        scale = -pow((top >> sh & slot) % p, -1, p)
        below = (1 << sh) - 1
        tail = _slots(ncol - 1 - col, nb)
        vals = tail.unpack((top & below).to_bytes(sh // 8, "big"))
        if wide:
            packed = tail.pack(*[(scale * int.from_bytes(x, "big") % p).to_bytes(nb, "big") for x in vals])
        else:
            packed = tail.pack(*[scale * x % p for x in vals])
        neg = int.from_bytes(packed, "big")
        for i in range(r + 1, nrow):
            row = rows[i]
            f = (row >> sh & slot) % p
            if f:
                rows[i] = (row + f * neg) & below
    return pivots
