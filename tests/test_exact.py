import random
from fractions import Fraction as F
from itertools import permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virmod import exact
from virmod.cli import LEVEL_MAX
from virmod.exact import (
    _CERT_PRIME,
    QQ,
    DenseMatrix,
    PrimeField,
    determinant,
    is_prime,
    kernel,
    rank,
    reduce_mod_p,
)
from virmod.virasoro import partitions
from virmod.weights import primes_upto

ODD_PRIMES = [3, 5, 7, 11, 13, 101]

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=720
)


def cofactor_det(rows):
    """Naive cofactor-expansion determinant; the independent oracle."""
    n = len(rows)
    if n == 0:
        return F(1)
    total = F(0)
    for sign, perm in zip_signs(n):
        prod = F(1)
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


def zip_signs(n):
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield (-1) ** inv, perm


def gauss_jordan_rank(rows):
    """Plain Fraction Gauss-Jordan rank; the independent oracle."""
    m = [[F(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def gauss_jordan_det(rows):
    """Plain Fraction Gauss-Jordan determinant; the independent oracle at
    sizes where cofactor expansion is too slow."""
    m = [[F(x) for x in row] for row in rows]
    det = F(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def bareiss(rows):
    """Fraction-free (Bareiss) elimination on integer rows, run on a copy;
    the independent oracle for exact ranks over QQ.  Returns (rank, det),
    det the signed last pivot for square input of full rank, else 0."""
    m = [list(row) for row in rows]
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    prev, sign, r = 1, 1, 0
    for col in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrow):
            m[i] = [0] * (col + 1) + [(m[r][col] * a - m[i][col] * b) // prev
                                      for a, b in zip(m[i][col + 1 :], m[r][col + 1 :])]
        prev = m[r][col]
        r += 1
        if r == nrow:
            break
    return r, sign * prev if nrow == ncol == r else 0


def qq(rows):
    """The integer rows that `kernel` and `determinant` take."""
    rows = tuple(map(tuple, rows))
    assert all(type(x) is int for row in rows for x in row)
    return rows


def cleared(rows):
    """Each row scaled by the lcm of its denominators: (the integer rows,
    the product of the scales).  Row scaling keeps the kernel and the rank,
    and multiplies det by the product of the scales."""
    out, scale = [], 1
    for row in rows:
        d = lcm(*(F(x).denominator for x in row))
        out.append([int(x * d) for x in row])
        scale *= d
    return out, scale


def gf(p, rows):
    return DenseMatrix(PrimeField(p), tuple(tuple(x % p for x in row) for row in rows))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def qq_rank(rows):
    """Rank over QQ as the number of columns less the kernel dimension."""
    return len(rows[0]) - len(kernel(qq(rows)))


def int_matrices(rows, cols, bound=9):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def list_echelon_mod_p(m, p):
    """The list elimination that the packed `exact._echelon_mod_p` replaced,
    run on a copy; the oracle for its pivot columns, pivot tails and signed
    pivot product (0 unless `m` is square with a pivot in every column)."""
    m = [list(row) for row in m]
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    pivots, tails, det = [], [], 1
    for col in range(ncol):
        r = len(pivots)
        piv = next((i for i in range(r, nrow) if m[i][col] % p != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][col]
        inv = pow(m[r][col] % p, -1, p)
        for i in range(r + 1, nrow):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
        tails.append([-x * inv % p for x in m[r][col + 1 :]])
        if r + 1 == nrow:
            break
    return pivots, tails, det % p if nrow == ncol == len(pivots) else 0


def gauss_jordan_kernel(rows):
    """The integer Gauss-Jordan elimination that the multi-modular
    `exact.kernel` replaced; the oracle for its basis.  Rows are cleared of
    denominators and divided by their content, and so is each updated row,
    which keeps the entries near the size of the minors."""
    m = []
    for row in cleared(rows)[0]:
        g = gcd(*row) or 1
        m.append([x // g for x in row])
    ncol = len(m[0]) if m else 0
    pivots = []  # pivots[i] is the pivot column of row i
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


# The first three primes of `kernel`: `_CERT_PRIME` and the next two below it
FIRST_MODULI = [_CERT_PRIME, 67108837, 67108819]


def cert_pivots(rows):
    """The pivot columns of the certificate's elimination mod `_CERT_PRIME`."""
    return exact._echelon_mod_p(rows, _CERT_PRIME)[0]


def primes_used(monkeypatch):
    """The moduli of every elimination mod p from now on, in order."""
    used = []
    echelon = exact._echelon_mod_p
    monkeypatch.setattr(exact, "_echelon_mod_p", lambda m, p: used.append(p) or echelon(m, p))
    return used


# Full rank over QQ, but not mod _CERT_PRIME: the certificate cannot decide them.
LOST_MOD_CERT_PRIME = [
    ([[1, 1], [1, 1 + _CERT_PRIME]], 2),
    ([[F(1, 3), 1], [1, 3 + _CERT_PRIME]], 2),
    ([[1, 2, 3], [2, 4, 6 + _CERT_PRIME], [3, 6, 9]], 2),
    ([[_CERT_PRIME, 0, 1], [0, _CERT_PRIME, 1]], 2),
]


def rational_matrices(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


class TestReduceModP:
    def test_examples(self):
        assert reduce_mod_p(F(1, 16), 7) == 4
        assert reduce_mod_p(F(1, 2), 7) == 4
        assert reduce_mod_p(F(0), 5) == 0
        assert reduce_mod_p(F(3, 80), 5) is None

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod_p(F(1, 3), 2)

    @given(a=rationals, b=rationals, p=st.sampled_from(ODD_PRIMES))
    def test_ring_homomorphism(self, a, b, p):
        ra, rb = reduce_mod_p(a, p), reduce_mod_p(b, p)
        if ra is not None and rb is not None:
            assert reduce_mod_p(a + b, p) == (ra + rb) % p
            assert reduce_mod_p(a * b, p) == ra * rb % p


class TestPrimality:
    def test_matches_sieve(self):
        assert [n for n in range(-3, 500) if is_prime(n)] == primes_upto(499)

    @pytest.mark.parametrize("p", [-7, 0, 1, 9, 15, 91])
    def test_prime_field_rejects_non_primes(self, p):
        with pytest.raises(ValueError, match="is not prime"):
            PrimeField(p)

    def test_prime_field_rejects_two(self):
        with pytest.raises(ValueError, match="odd prime"):
            PrimeField(2)


class TestRank:
    """rank over F_p; QQ ranks as columns less the kernel dimension."""

    def test_identity(self):
        assert rank(gf(5, identity(5))) == 5
        assert kernel(qq(identity(5))) == []

    def test_zero(self):
        assert rank(gf(5, [[0] * 4] * 3)) == 0
        assert qq_rank([[0] * 4] * 3) == 0

    def test_level2_gram_at_half_zero(self):
        # G_2 = [[1/4, 0], [0, 0]] at c = 1/2, h = 0, times 4
        assert kernel(qq([[1, 0], [0, 0]])) == [(0, 1)]

    def test_mod_p(self):
        assert rank(gf(5, [[1, 2], [2, 4]])) == 1
        assert rank(gf(5, identity(4))) == 4

    def test_rejects_rationals(self):
        with pytest.raises(ValueError, match="prime fields only"):
            rank(DenseMatrix(QQ, tuple(map(tuple, identity(2)))))

    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        data=st.data(),
        p=st.sampled_from(ODD_PRIMES),
    )
    @settings(max_examples=60)
    def test_mod_p_rank_bounded_by_rational_rank(self, rows, cols, data, p):
        ints = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        assert rank(gf(p, ints)) <= qq_rank(ints)


# Slots of every width: 1 byte (p = 3), 2 and 4 (5 to 101), 8 (`_CERT_PRIME`),
# 8 or wide by the matrix size (the largest prime below 2^30), and wide chunks
# only (the least prime above 2^32, and the largest below 2^40, the largest
# --prime the CLI takes).
ECHELON_PRIMES = [3, 5, 7, 11, 101, _CERT_PRIME, 1073741789, 4294967311, 1099511627689]


def echelon_entries(p):
    """Residues at the edges of [0, p), and ints outside it on both sides."""
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(max_value=-1), st.integers(min_value=p))


def fixed_matrix(rows, cols, p, seed, rank_bound=None):
    """A reproducible matrix of entries drawn as in `echelon_entries` or
    below p; with `rank_bound` k, a product of rows x k and k x cols such
    matrices."""
    rng = random.Random(seed)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([0, 1, p - 1])
        if kind == 1:
            return -rng.randrange(1, 10**20)
        return rng.randrange(p, p + 10**20) if kind == 2 else rng.randrange(p)

    if rank_bound is None:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    a = fixed_matrix(rows, rank_bound, p, seed + 1)
    b = fixed_matrix(rank_bound, cols, p, seed + 2)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestEchelonModP:
    """The packed elimination picks the list oracle's pivots, in its order,
    with its pivot tails and signed pivot product, and leaves its input
    alone."""

    @staticmethod
    def check(m, p):
        before = [list(row) for row in m]
        pivots, tails, det = exact._echelon_mod_p(m, p)
        ncol = len(m[0]) if m else 0
        unpacked = [list(exact._unpack(t, ncol - 1 - c)) for c, t in zip(pivots, tails)]
        assert (pivots, unpacked, det) == list_echelon_mod_p(m, p)
        assert m == before

    @given(rows=st.integers(0, 12), cols=st.integers(0, 12), p=st.sampled_from(ECHELON_PRIMES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_list_oracle(self, rows, cols, p, data):
        self.check(data.draw(st.lists(st.lists(echelon_entries(p), min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)), p)

    @pytest.mark.parametrize("p", ECHELON_PRIMES)
    @pytest.mark.parametrize("rows,cols", [(40, 40), (60, 25), (25, 60)])
    @pytest.mark.parametrize("rank_bound", [None, 12])
    def test_large_matches_list_oracle(self, rows, cols, p, rank_bound):
        self.check(fixed_matrix(rows, cols, p, rows * cols + p % 1000, rank_bound), p)


class TestCertifiedRank:
    """The QQ rank from kernel, certified or not, is the Gauss-Jordan rank."""

    def test_cert_prime_is_largest_prime_below_2_26(self):
        assert is_prime(_CERT_PRIME)
        assert _CERT_PRIME < 2**26
        assert not any(is_prime(n) for n in range(_CERT_PRIME + 1, 2**26))
        assert [n for n in range(_CERT_PRIME, FIRST_MODULI[-1] - 1, -1) if is_prime(n)] == FIRST_MODULI
        # a certificate on a Gram level up to the CLI's cap packs into 8-byte slots
        k = len(partitions(LEVEL_MAX))
        assert (k + 1) * (_CERT_PRIME - 1) ** 2 + _CERT_PRIME < 2**64

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_gauss_jordan(self, rows, cols, data):
        m = data.draw(rational_matrices(rows, cols))
        assert qq_rank(cleared(m)[0]) == gauss_jordan_rank(m)

    @given(n=st.integers(2, 7), m=st.integers(2, 7), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_rank_deficient_products(self, n, m, data):
        k = data.draw(st.integers(0, min(n, m) - 1))
        a = data.draw(rational_matrices(n, k))
        b = data.draw(rational_matrices(k, m))
        prod = [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(m)]
                for i in range(n)]
        expected = gauss_jordan_rank(prod)
        assert expected <= k
        assert qq_rank(cleared(prod)[0]) == expected

    @pytest.mark.parametrize("rows,expected", LOST_MOD_CERT_PRIME)
    def test_rank_lost_mod_cert_prime_goes_through_bareiss(self, rows, expected):
        # the certificate falls short of the QQ rank; Bareiss on the
        # integer rows recovers it, and so does the kernel
        int_rows, _ = cleared(rows)
        assert len(cert_pivots(int_rows)) < expected
        assert bareiss(int_rows)[0] == expected == gauss_jordan_rank(rows) == qq_rank(int_rows)

    def test_full_rank_skips_bareiss(self, monkeypatch):
        def fail(m):
            raise AssertionError("a determinant ran on a certified full-rank matrix")

        monkeypatch.setattr(exact, "determinant", fail)
        before = exact.ELIMINATIONS["determinant"]
        assert qq_rank(identity(6)) == 6
        assert qq_rank(cleared([[F(1, 2), 7], [3, F(-11, 13)], [5, 17]])[0]) == 2
        assert exact.ELIMINATIONS["determinant"] == before


class TestCertificateFallback:
    """kernel certifies the integer rows as they are."""

    P = _CERT_PRIME

    @pytest.mark.parametrize(
        "rows,vecs,rank_qq",
        [([[P, 2 * P], [P, 3 * P]], [], 2), ([[P, 2 * P], [2 * P, 4 * P]], [(-2, 1)], 1)],
    )
    def test_raw_rows_failing_the_certificate(self, rows, vecs, rank_qq):
        assert cert_pivots(rows) == []
        assert kernel(qq(rows)) == vecs
        assert qq_rank(rows) == rank_qq == gauss_jordan_rank(rows)


class TestKernel:
    """kernel returns a primitive integer basis of the null space: the
    Gauss-Jordan oracle's."""

    @staticmethod
    def check(rows):
        vecs = kernel(qq(rows))
        assert vecs == gauss_jordan_kernel(rows)
        cols = len(rows[0])
        assert len(vecs) == cols - gauss_jordan_rank(rows)
        for v in vecs:
            assert len(v) == cols and all(type(x) is int for x in v)
            assert gcd(*v) == 1
            assert all(sum((F(a) * x for a, x in zip(row, v)), F(0)) == 0 for row in rows)
        if vecs:
            assert gauss_jordan_rank(vecs) == len(vecs)
        return vecs

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_matrices(self, rows, cols, data):
        self.check(data.draw(int_matrices(rows, cols, bound=3)))

    @given(n=st.integers(2, 7), m=st.integers(2, 7), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_deficient_products(self, n, m, data):
        k = data.draw(st.integers(0, min(n, m) - 1))
        a = data.draw(int_matrices(n, k))
        b = data.draw(int_matrices(k, m))
        prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert len(self.check(prod)) >= m - k

    @pytest.mark.parametrize("rows,rank_qq", LOST_MOD_CERT_PRIME)
    def test_rank_lost_mod_cert_prime(self, rows, rank_qq, monkeypatch):
        # as given, and transposed so that all four have full column rank
        # over QQ, where the kernel must find no vector; the certificate
        # decides neither, so a later prime of the list is taken on both
        rows = cleared(rows)[0]
        transposed = [list(col) for col in zip(*rows)]
        for m in (rows, transposed):
            used = primes_used(monkeypatch)
            vecs = self.check(m)
            if len(m[0]) == rank_qq:
                assert vecs == []
            assert used[0] == _CERT_PRIME and len(used) > 1 and _CERT_PRIME not in used[1:]
            assert used[1:] == exact._MODULI[1 : len(used)]

    @given(cols=st.integers(1, 6), nullity=st.integers(0, 3), extra=st.integers(0, 2),
           fractions=st.booleans(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_gauss_jordan_when_early_primes_fail(self, cols, nullity, extra, fractions, data):
        """Rows and columns scaled by products of the first three moduli, so
        that those primes lose rank or shift pivots; some rows then divided
        by a small integer and scaled back to integer rows, which may cancel
        part of a scale."""
        nullity = min(nullity, cols)
        nrow = max(1, cols - nullity + extra)
        a = data.draw(int_matrices(nrow, cols - nullity, bound=5))
        b = data.draw(int_matrices(cols - nullity, cols, bound=5))
        rows = [[sum(a[i][t] * b[t][j] for t in range(cols - nullity)) for j in range(cols)] for i in range(nrow)]
        moduli = st.lists(st.sampled_from(FIRST_MODULI), max_size=2).map(prod)
        row_scales = data.draw(st.lists(moduli, min_size=nrow, max_size=nrow))
        col_scales = data.draw(st.lists(moduli, min_size=cols, max_size=cols))
        rows = [[x * r * c for x, c in zip(row, col_scales)] for row, r in zip(rows, row_scales)]
        if fractions:
            dens = data.draw(st.lists(st.integers(1, 12), min_size=nrow, max_size=nrow))
            rows = cleared([[F(x, d) for x in row] for row, d in zip(rows, dens)])[0]
        vecs = self.check(rows)
        assert len(vecs) >= nullity

    def test_pivots_shifted_mod_cert_prime(self, monkeypatch):
        # the same rank mod _CERT_PRIME, but pivots at later columns: the
        # next prime's smaller pivot list replaces the certificate's residues,
        # and the entry -1/_CERT_PRIME of the vector that is 1 at column 1
        # takes three primes to reconstruct (a modulus above 2 * 2^52)
        rows = [[_CERT_PRIME, 1, 0], [0, 0, 0]]
        assert cert_pivots(rows) == [1]
        used = primes_used(monkeypatch)
        assert self.check(rows) == [(-1, _CERT_PRIME, 0), (0, 0, 1)]
        assert used == exact._MODULI[:4]

    @pytest.mark.parametrize("seed", range(4))
    def test_faulty_elimination_raises(self, seed, monkeypatch):
        """A mutant elimination that leaves out the last pivot's tail gives
        vectors that fail M v = 0 at every prime: the kernel raises once
        the primes pass the Hadamard bound, instead of trying more."""
        used = primes_used(monkeypatch)
        real = exact._echelon_mod_p

        def mutant(m, p):
            pivots, tails, det = real(m, p)
            return pivots, [*tails[:-1], bytes(len(tails[-1]))] if tails else tails, det

        rng = random.Random(seed)
        rows = [[1, 0, 1], [0, 1, 1]] if not seed else [
            [rng.randint(-100, 100) for _ in range(8)] for _ in range(2 * seed)
        ]
        monkeypatch.setattr(exact, "_echelon_mod_p", mutant)
        with pytest.raises(RuntimeError, match="faulty elimination"):
            kernel(qq(rows))
        assert 0 < len(used) < 10

    def test_free_column_normalisation(self):
        assert kernel(qq([[2, 4, 6], [1, 2, 3]])) == [(-2, 1, 0), (-3, 0, 1)]
        assert kernel(qq([[0, 0]])) == [(1, 0), (0, 1)]
        assert kernel(qq([[3, 2]])) == [(-2, 3)]


class TestRowContent:
    """Huge row factors leave the kernel's rank alone, and determinant keeps
    them as factors of the result."""

    @given(n=st.integers(1, 5), m=st.integers(1, 5), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_rank_ignores_huge_row_factors(self, n, m, data):
        ints = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                                  min_size=n, max_size=n))
        scales = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        scaled = [[10**60 * s * x for x in row] for s, row in zip(scales, ints)]
        assert qq_rank(scaled) == gauss_jordan_rank(ints)

    @given(n=st.integers(1, 4), data=st.data())
    @settings(max_examples=30)
    def test_determinant_keeps_row_factors(self, n, data):
        ints = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        scales = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        scaled = [[10**30 * s * x for x in row] for s, row in zip(scales, ints)]
        factor = prod(10**30 * s for s in scales)
        assert determinant(qq(scaled)) == factor * cofactor_det(ints)


class TestDeterminant:
    @given(n=st.integers(1, 7), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_gauss_jordan_on_scaled_rows(self, n, data):
        """Rows scaled by 10^k * s, zero rows, and rational rows."""
        rows = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["int", "scaled", "zero", "rational"]))
            if kind == "zero":
                rows.append([0] * n)
            elif kind == "rational":
                rows.append(data.draw(st.lists(rationals, min_size=n, max_size=n)))
            else:
                row = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
                if kind == "scaled":
                    f = 10 ** data.draw(st.integers(0, 40)) * data.draw(st.integers(-10**6, 10**6))
                    row = [f * x for x in row]
                rows.append(row)
        int_rows, scale = cleared(rows)
        assert determinant(qq(int_rows)) == scale * gauss_jordan_det(rows) == bareiss(int_rows)[1]

    @given(n=st.integers(3, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_crt_looks_past_zero_residues(self, n, data):
        """Rows scaled by the first three primes of `_MODULI` in turn: the
        determinant is 0 mod each, so the CRT needs later primes."""
        ints = data.draw(int_matrices(n, n))
        rows = [[FIRST_MODULI[i % 3] * x for x in row] for i, row in enumerate(ints)]
        assert determinant(qq(rows)) == bareiss(rows)[1] == gauss_jordan_det(rows)

    def test_negative_multiple_of_the_first_primes(self, monkeypatch):
        p, q, r = FIRST_MODULI
        used = primes_used(monkeypatch)
        before = exact.ELIMINATIONS["determinant"]
        assert determinant(qq([[0, q, 0], [p, 0, 0], [0, 0, r]])) == -p * q * r
        assert exact.ELIMINATIONS["determinant"] == before + 1
        assert used == exact._MODULI[: len(used)] and len(used) > 3

    @given(n=st.integers(2, 7), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_singular_products(self, n, data):
        k = data.draw(st.integers(0, n - 1))
        a = data.draw(int_matrices(n, k))
        b = data.draw(int_matrices(k, n))
        scales = data.draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n))
        rows = [[s * sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                for i, s in enumerate(scales)]
        assert determinant(qq(rows)) == 0 == gauss_jordan_det(rows)

    def test_zero_row_skips_bareiss(self, monkeypatch):
        def fail(m, p):
            raise AssertionError("an elimination ran on a matrix with a zero row")

        monkeypatch.setattr(exact, "_echelon_mod_p", fail)
        assert determinant(qq([[1, 2], [0, 0]])) == 0
        assert determinant(qq([[0, 0], [1, 6]])) == 0

    def test_identity(self):
        assert determinant(qq(identity(4))) == 1

    def test_level2_gram_vanishing(self):
        c, h = F(1, 2), F(1, 16)
        m = [[4 * h + c / 2, 6 * h], [6 * h, 8 * h * h + 4 * h]]
        int_rows, scale = cleared(m)
        assert determinant(qq(int_rows)) == scale * cofactor_det(m) == 0

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            determinant(qq([[1, 2, 3], [4, 5, 6]]))

    @given(n=st.integers(1, 5), data=st.data())
    @settings(max_examples=60)
    def test_matches_cofactor_expansion(self, n, data):
        ints = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        det = determinant(qq(ints))
        assert type(det) is int and det == cofactor_det(ints)

    @given(n=st.integers(1, 4), data=st.data())
    @settings(max_examples=30)
    def test_rational_entries(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                         min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        int_rows, scale = cleared(rows)
        assert determinant(qq(int_rows)) == scale * cofactor_det(rows)


def test_ragged_rejected():
    with pytest.raises(ValueError):
        DenseMatrix(QQ, ((F(1),), (F(1), F(2))))
