from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from virmod import cli, exact, virasoro
from virmod.exact import QQ, PrimeField, determinant, reduce_mod_p
from virmod.virasoro import (
    DegenerateParams,
    Partition,
    VermaParams,
    _build_levels,
    _lower,
    _prepend,
    _radical_levels,
    gram_matrix,
    graded_rank,
    irreducibility_probe,
    kac_vanishing_check,
    partitions,
)
from virmod.weights import MinimalLabel, canonical_labels, central_charge, highest_weight
from test_exact import bareiss


def vacuum_coefficient(word, c, h):
    """Brute-force oracle: coefficient of the highest-weight vector in
    (word applied to it), by repeated single-swap bracket application.

    `word` is a tuple of mode numbers, rightmost acting first; no
    memoization, no normal-ordered basis.
    """
    total = F(0)
    worklist = [(tuple(word), F(1))]
    while worklist:
        w, coeff = worklist.pop()
        if not w:
            total += coeff
            continue
        if w[-1] > 0:
            continue  # positive mode annihilates the vector
        if w[-1] == 0:
            worklist.append((w[:-1], coeff * h))
            continue
        # rightmost mode is negative; find a non-negative mode to push right
        i = max((j for j in range(len(w)) if w[j] >= 0), default=None)
        if i is None:
            continue  # purely lowering word has no vacuum component
        m, n = w[i], w[i + 1]
        swapped = w[:i] + (n, m) + w[i + 2 :]
        worklist.append((swapped, coeff))
        merged = w[:i] + (m + n,) + w[i + 2 :]
        worklist.append((merged, coeff * (m - n)))
        if m + n == 0:
            central = F(comb(m + 1, 3), 2) * c
            worklist.append((w[:i] + w[i + 2 :], coeff * central))
    return total


def gram_oracle(c, h, level):
    basis = partitions(level)
    return [
        [
            vacuum_coefficient(tuple(reversed(mu)) + tuple(-a for a in lam), c, h)
            for lam in basis
        ]
        for mu in basis
    ]


@dataclass(frozen=True)
class PBWVector:
    """Homogeneous combination of degree-`degree` basis monomials."""

    degree: int
    terms: tuple[tuple[Partition, object], ...]

    def as_dict(self) -> dict[Partition, object]:
        return dict(self.terms)


def _vector(degree, terms):
    return PBWVector(degree, tuple(sorted(terms.items())))


def basis_vector(part):
    return _vector(sum(part), {tuple(part): 1})


def apply_mode(k, state, params):
    """Normal-ordered image of L_k on a homogeneous vector; degree drops by k.

    The word oracle: coefficients are Fractions over QQ and residues mod p
    over F_p, and the images of positive modes, evaluated from `_lower` at
    params' (c, h), are memoized in `params._memo`."""
    if k == 0:
        raise ValueError("L0 acts as the scalar h + degree; use the scalar directly")
    d, dh, dc2, p = params._scale, params._dh, params._dc2, params._mod
    out = {}
    for part, coeff in state.terms:
        if k > 0:
            img = params._memo.get((k, part))
            if img is None:
                img = params._memo[k, part] = {
                    q: (a * d + b * dh + e * dc2) % p if p else F(a * d + b * dh + e * dc2, d)
                    for q, a, b, e in _lower(k, part)
                }
        else:
            img = dict(_prepend(-k, part))
        for q, s in img.items():
            out[q] = out.get(q, 0) + coeff * s
    if p:
        out = {q: s % p for q, s in out.items()}
    return _vector(state.degree - k, {q: s for q, s in out.items() if s})


def word_gram(params, level):
    """Gram matrix by applying each whole mode word L_{mu_k}...L_{mu_1} to
    each basis monomial with `apply_mode`, on params of its own."""
    own = VermaParams(params.c, params.h, params.field_)
    rows = []
    for mu in partitions(level):
        row = []
        for lam in partitions(level):
            state = basis_vector(lam)
            for k in mu:
                state = apply_mode(k, state, own)
            row.append(state.as_dict().get((), 0))
        rows.append(tuple(row))
    return rows


def act_pos_oracle(k, part, params, memo):
    """The per-parameter recursion that `_lower` replaced: D times the image
    of L_k (k > 0) on a basis monomial, as partition -> int (a residue mod p
    over F_p), memoized in `memo` for this one parameter set."""
    key = (k, part)
    if key in memo:
        return memo[key]
    out = {}
    if part:
        a, rest = part[0], part[1:]
        # L_k L_{-a} X = L_{-a} (L_k X) + [L_k, L_{-a}] X
        for q, s in act_pos_oracle(k, rest, params, memo).items():
            for q2, c2 in _prepend(a, q):
                out[q2] = out.get(q2, 0) + s * c2
        m2 = k - a
        coeff = k + a
        if m2 > 0:
            for q, s in act_pos_oracle(m2, rest, params, memo).items():
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


def evaluated_lower(k, part, params):
    """`_lower(k, part)` evaluated at params' D, D h and D c/2, zeros dropped."""
    out = {}
    for q, a, b, e in _lower(k, part):
        s = a * params._scale + b * params._dh + e * params._dc2
        if params._mod:
            s %= params._mod
        if s:
            out[q] = s
    return out


LEVEL9_FIXTURE = Path(__file__).parent / "data" / "gram_level9_c1_2_h1_16.txt"

small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = small_rationals.filter(lambda t: t != 0)


def kac_h(r, s, t):
    """h_{r,s} at c = 13 - 6(t + 1/t)."""
    return ((r * r - 1) * t + F(s * s - 1) / t) / 4 - F(r * s - 1, 2)


def kac_product(t, h, level):
    """prod over rs <= level of (h - h_{r,s}(t))^{p(level - rs)}."""
    prod = F(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            prod *= (h - kac_h(r, s, t)) ** len(partitions(level - r * s))
    return prod


def kac_constants(t, h, n_max):
    """det G_N / kac_product for N = 1..n_max; the same for every (t, h) off
    the Kac curves (Kac 1979)."""
    params = VermaParams.rational(13 - 6 * (t + 1 / t), h)
    _build_levels(params, n_max)
    return [
        F(determinant(params._levels[n]), params._scale ** (n * len(partitions(n)))) / kac_product(t, h, n)
        for n in range(1, n_max + 1)
    ]


KAC_REFERENCE = (F(2), F(1, 3))

kac_curve_points = st.tuples(
    nonzero_rationals, st.sampled_from([(r, s) for r in range(1, 9) for s in range(1, 8 // r + 1)])
)


def rocha_caridi_ranks(ell, m, n, n_max):
    """Level coefficients 0..n_max of the irreducible minimal-model character
    (Rocha-Caridi 1985), with p = l+2 and p' = l+1:
    q^-h chi = (1/phi(q)) sum_k (q^a_k(m,n) - q^a_k(m,-n)),
    a_k(m,s) = ((2pp'k + pm - p's)^2 - (pm - p'n)^2) / (4pp')."""
    p, pp = ell + 2, ell + 1

    def a(k, s):
        return ((2 * p * pp * k + p * m - pp * s) ** 2 - (p * m - pp * n) ** 2) // (4 * p * pp)

    # a_k >= pp'((|k|-1)^2 - 1/4) > n_max once |k| > n_max + 1
    shifts = [(a(k, s), sign) for k in range(-n_max - 1, n_max + 2) for s, sign in ((n, 1), (-n, -1))]
    return [
        sum(sign * len(partitions(level - e)) for e, sign in shifts if e <= level)
        for level in range(n_max + 1)
    ]


def minimal_points(ell):
    for lab in canonical_labels(ell):
        yield lab, VermaParams.rational(central_charge(ell), highest_weight(ell, lab.m, lab.n))


class TestPartitions:
    def test_empty(self):
        assert partitions(0) == ((),)

    def test_five(self):
        assert partitions(5) == (
            (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
        )

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (8, 22)])
    def test_counts(self, n, count):
        assert len(partitions(n)) == count

    @pytest.mark.parametrize("n", range(9))
    def test_sorted_descending_parts(self, n):
        for p in partitions(n):
            assert sum(p) == n
            assert list(p) == sorted(p, reverse=True)


class TestApplyMode:
    @pytest.fixture
    def params(self):
        return VermaParams.rational(F(17, 5), F(23, 7))

    def test_l1_on_lminus1(self, params):
        out = apply_mode(1, basis_vector((1,)), params)
        assert out.as_dict() == {(): 2 * params.h}

    def test_l2_on_lminus2(self, params):
        out = apply_mode(2, basis_vector((2,)), params)
        assert out.as_dict() == {(): 4 * params.h + params.c / 2}

    def test_l2_on_lminus1_squared(self, params):
        out = apply_mode(2, basis_vector((1, 1)), params)
        assert out.as_dict() == {(): 6 * params.h}

    def test_l0_rejected(self, params):
        with pytest.raises(ValueError):
            apply_mode(0, basis_vector((2,)), params)

    def test_degree_bookkeeping(self, params):
        state = basis_vector((3, 1))
        out = apply_mode(2, state, params)
        assert out.degree == 2
        lowered = apply_mode(-2, state, params)
        assert lowered.degree == 6

    @given(c=small_rationals, h=small_rationals, k=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_adjoint_property(self, c, h, k, data):
        # <L_{-k} x, y> = <x, L_k y> for homogeneous x, y with deg y = deg x + k
        params = VermaParams.rational(c, h)
        dx = data.draw(st.integers(0, 3))
        x_part = data.draw(st.sampled_from(partitions(dx))) if dx else ()
        y_parts = partitions(dx + k)
        y_part = data.draw(st.sampled_from(y_parts))
        lhs_vec = apply_mode(-k, basis_vector(x_part), params)
        rhs_vec = apply_mode(k, basis_vector(y_part), params)
        g = gram_matrix(params, dx + k)
        basis_hi = partitions(dx + k)
        lhs = sum(
            coeff * g.entries[basis_hi.index(p)][basis_hi.index(y_part)]
            for p, coeff in lhs_vec.terms
        )
        g_lo = gram_matrix(params, dx)
        basis_lo = partitions(dx)
        rhs = sum(
            coeff * g_lo.entries[basis_lo.index(x_part)][basis_lo.index(p)]
            for p, coeff in rhs_vec.terms
        )
        assert lhs == rhs

    @given(c=st.integers(-20, 20), h=st.integers(-20, 20))
    @settings(max_examples=20, deadline=None)
    def test_coefficient_denominators_are_powers_of_two(self, c, h):
        # at integer c, h the only denominators introduced by the bracket
        # are powers of 2 (the central term's 1/2)
        params = VermaParams.rational(F(c), F(h))
        for part in partitions(4):
            for k in (1, 2, 3, 4):
                out = apply_mode(k, basis_vector(part), params)
                for _, coeff in out.terms:
                    d = coeff.denominator
                    while d % 2 == 0:
                        d //= 2
                    assert d == 1


class TestGramMatrix:
    def test_level0(self):
        params = VermaParams.rational(F(1, 2), F(1, 16))
        assert gram_matrix(params, 0).entries == ((F(1),),)

    def test_level1(self):
        params = VermaParams.rational(F(1, 2), F(1, 16))
        assert gram_matrix(params, 1).entries == ((F(1, 8),),)

    @given(c=small_rationals, h=small_rationals)
    @settings(max_examples=25, deadline=None)
    def test_level2_closed_form(self, c, h):
        params = VermaParams.rational(c, h)
        expected = ((4 * h + c / 2, 6 * h), (6 * h, 8 * h * h + 4 * h))
        assert gram_matrix(params, 2).entries == expected

    @given(c=small_rationals, h=small_rationals, n=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, c, h, n):
        g = gram_matrix(VermaParams.rational(c, h), n)
        for i in range(g.rows):
            for j in range(g.cols):
                assert g.entries[i][j] == g.entries[j][i]

    @given(c=small_rationals, h=small_rationals, n=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_word_oracle(self, c, h, n):
        g = gram_matrix(VermaParams.rational(c, h), n)
        assert [list(r) for r in g.entries] == gram_oracle(c, h, n)

    @given(c=small_rationals, h=small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_levels_0_to_5_match_apply_mode_words(self, c, h):
        params = VermaParams.rational(c, h)
        for n in range(6):
            assert list(gram_matrix(params, n).entries) == word_gram(params, n)

    @given(p=st.sampled_from([3, 5, 7, 11, 13, 101]), c=st.integers(0, 100), h=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_levels_0_to_5_match_apply_mode_words_mod_p(self, p, c, h):
        params = VermaParams(c % p, h % p, PrimeField(p))
        for n in range(6):
            assert list(gram_matrix(params, n).entries) == word_gram(params, n)

    @pytest.mark.parametrize("field_", [QQ, PrimeField(11)])
    @pytest.mark.parametrize("order", [(6, 3), (3, 6)])
    def test_level_cache_in_either_order(self, field_, order):
        c, h = F(7, 10), F(3, 80)
        if field_ is not QQ:
            c, h = reduce_mod_p(c, field_.p), reduce_mod_p(h, field_.p)
        shared = VermaParams(c, h, field_)
        for n in order:
            assert gram_matrix(shared, n) == gram_matrix(VermaParams(c, h, field_), n)

    def test_level9_matches_recorded_word_engine(self):
        rows = [
            tuple(F(x) for x in line.split())
            for line in LEVEL9_FIXTURE.read_text().splitlines()
            if not line.startswith("#")
        ]
        params = VermaParams.rational(central_charge(2), highest_weight(2, 2, 2))
        assert gram_matrix(params, 9).entries == tuple(rows)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix(VermaParams.rational(F(1, 2), F(1, 16)), -1)

    def test_mod_p_matches_reduced_rational(self):
        for ell in (2, 3, 4):
            for lab in canonical_labels(ell):
                c, h = central_charge(ell), highest_weight(ell, lab.m, lab.n)
                rational = VermaParams.rational(c, h)
                for p in (7, 11, 13, 101):
                    reduced = VermaParams.mod_p(c, h, p)
                    for n in range(9):
                        assert gram_matrix(reduced, n).entries == tuple(
                            tuple(reduce_mod_p(x, p) for x in row)
                            for row in gram_matrix(rational, n).entries
                        )

    @pytest.mark.parametrize(
        "c,h,scale",
        [
            (F(7, 10), F(3, 7), 140),  # D = lcm(den h, 2 den c)
            (F(-22, 5), F(-1, 5), 10),
            (F(734521, 912346), F(-612345, 555557), 2 * 912346 * 555557),
        ],
        ids=["even-den-c", "lee-yang", "six-digit"],
    )
    def test_scaled_levels_are_d_power_times_vacuum_oracle(self, c, h, scale):
        params = VermaParams.rational(c, h)
        gram_matrix(params, 4)
        assert params._scale == scale
        for n in range(5):
            level = params._levels[n]
            assert all(type(x) is int for row in level for x in row)
            assert [list(r) for r in level] == [[scale**n * x for x in row] for row in gram_oracle(c, h, n)]

    def test_memo_determinism(self):
        c, h = F(7, 10), F(3, 80)
        a = gram_matrix(VermaParams.rational(c, h), 4)
        b = gram_matrix(VermaParams.rational(c, h), 4)  # fresh memo table
        assert a == b


class TestStructureConstants:
    """`_lower` evaluated at (c, h) equals the per-parameter recursion."""

    @staticmethod
    def check(params):
        memo = {}
        for n in range(9):
            for part in partitions(n):
                for k in range(1, 7):
                    assert evaluated_lower(k, part, params) == act_pos_oracle(k, part, params, memo)

    @given(c=small_rationals, h=small_rationals)
    @settings(max_examples=15, deadline=None)
    def test_matches_recursion_over_qq(self, c, h):
        self.check(VermaParams.rational(c, h))

    @pytest.mark.parametrize("p", [3, 5, 11, 101])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_matches_recursion_mod_p(self, p, data):
        c, h = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        self.check(VermaParams(c, h, PrimeField(p)))

    def test_second_parameter_set_reuses_the_cache(self):
        _lower.cache_clear()
        _build_levels(VermaParams.rational(F(7, 10), F(3, 80)), 8)
        first = _lower.cache_info()
        assert first.misses > 0
        for other in (VermaParams.rational(F(-22, 5), F(-1, 5)), VermaParams.mod_p(F(1, 2), F(1, 16), 11)):
            _build_levels(other, 8)
            assert other._memo == {}
        second = _lower.cache_info()
        assert second.misses == first.misses
        assert second.hits > first.hits


class TestGradedRank:
    def test_vacuum_at_c_half(self):
        rep = graded_rank(VermaParams.rational(F(1, 2), F(0)), 2)
        assert rep.levels == ((0, 1, 1), (1, 1, 0), (2, 2, 1))

    def test_generic_params_full_rank(self):
        rep = graded_rank(VermaParams.rational(F(17, 5), F(23, 7)), 5)
        for n, dim, r in rep.levels:
            assert r == dim == len(partitions(n))

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_matches_rocha_caridi_character(self, ell):
        for lab, params in minimal_points(ell):
            ranks = [r for _, _, r in graded_rank(params, 12).levels]
            assert ranks == rocha_caridi_ranks(ell, lab.m, lab.n, 12)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_radical_basis_is_exact_kernel(self, ell, monkeypatch):
        """K_n spans ker S_n in trailing form, and C_n carries an invertible
        principal minor of size rank S_n.  The images of K_{n-1} and K_{n-2}
        are kept exactly, so the kernel step finds new vectors only at the
        levels of the two singular vectors.

        No whole level is eliminated: the assertions fix rank S_n = r.  K_n
        lies in ker S_n (checked exactly) and holds dim - r vectors with
        distinct last columns, hence independent, so rank S_n <= r.  The
        minor on C_n has rank r, so rank S_n >= r."""
        found = []
        real = virasoro.kernel

        def counting(m):
            null = real(m)
            found.append(len(null))
            return null

        monkeypatch.setattr(virasoro, "kernel", counting)
        for lab, params in minimal_points(ell):
            singular = {lab.m * lab.n, (ell + 1 - lab.m) * (ell + 2 - lab.n)}
            start = len(found)
            radical = _radical_levels(params, 11)
            assert len(found) == start + 12  # one kernel step per level
            for n, (r, basis, cols) in enumerate(radical):
                assert found[start + n] == 0 or n in singular
                level = params._levels[n]
                assert len(basis) == len(partitions(n)) - r
                for v in basis:
                    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in level)
                lasts = [max(j for j, x in enumerate(v) if x) for v in basis]
                assert len(set(lasts)) == len(lasts)
                assert sorted(set(cols) | set(lasts)) == list(range(len(partitions(n))))
                assert len(cols) == r
                assert bareiss([[level[i][j] for j in cols] for i in cols])[0] == r

    @given(point=kac_curve_points)
    @settings(max_examples=25, deadline=None)
    def test_matches_bareiss_on_kac_curves(self, point):
        # the first singular vector sits at level rs, which need not be a
        # level where the kernel step runs at the minimal points
        t, (r, s) = point
        params = VermaParams.rational(13 - 6 * (t + 1 / t), kac_h(r, s, t))
        ranks = [rk for _, _, rk in graded_rank(params, 8).levels]
        assert ranks == [bareiss(params._levels[n])[0] for n in range(9)]
        assert ranks[r * s] < len(partitions(r * s))

    @pytest.mark.parametrize(
        "c,h",
        [(central_charge(ell), highest_weight(ell, m, n)) for ell, m, n in [(2, 2, 2), (3, 3, 2), (4, 3, 2)]]
        + [(F(734521, 912346), F(-612345, 555557))],
        ids=["2-2-2", "3-3-2", "4-3-2", "generic"],
    )
    def test_rational_ranks_never_run_bareiss(self, c, h, monkeypatch):
        def fail(m):
            raise AssertionError("a determinant ran in a QQ graded rank")

        monkeypatch.setattr(exact, "determinant", fail)
        before = exact.ELIMINATIONS["determinant"]
        graded_rank(VermaParams.rational(c, h), 11)
        assert exact.ELIMINATIONS["determinant"] == before

    @pytest.mark.parametrize("p", [11, 13])
    def test_rank_mod_p_bounded(self, p):
        c, h = central_charge(2), highest_weight(2, 2, 1)
        rq = graded_rank(VermaParams.rational(c, h), 5)
        rp = graded_rank(VermaParams.mod_p(c, h, p), 5)
        for (_, _, a), (_, _, b) in zip(rq.levels, rp.levels):
            assert b <= a


class TestKacDeterminant:
    """The Kac determinant formula as an oracle for the Gram engine, the
    determinant and the QQ graded rank, past the word oracle's level 3."""

    def test_reference_constants(self):
        assert kac_constants(*KAC_REFERENCE, 6) == [
            2, 32, 2304, 37748736, 8697308774400, 3403943096276485354291200
        ]

    @given(t=nonzero_rationals, h=small_rationals)
    @settings(max_examples=30, deadline=None)
    def test_determinant_over_kac_product_is_constant(self, t, h):
        assume(kac_product(t, h, 6) != 0)
        assert kac_constants(t, h, 6) == kac_constants(*KAC_REFERENCE, 6)
        params = VermaParams.rational(13 - 6 * (t + 1 / t), h)
        ranks = [rk for _, _, rk in graded_rank(params, 6).levels]
        assert ranks == [len(partitions(n)) for n in range(7)]

    @given(
        t=nonzero_rationals,
        rs=st.sampled_from([(r, s) for r in range(1, 7) for s in range(1, 6 // r + 1)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_drops_on_kac_curve(self, t, rs):
        r, s = rs
        params = VermaParams.rational(13 - 6 * (t + 1 / t), kac_h(r, s, t))
        _, dim, rk = graded_rank(params, r * s).levels[-1]
        assert rk < dim == len(partitions(r * s))


class TestProbe:
    def test_consistent_at_good_primes(self):
        v = irreducibility_probe(2, MinimalLabel(2, 1, 1), 11, 6)
        assert v.consistent
        v = irreducibility_probe(2, MinimalLabel(2, 2, 2), 101, 6)
        assert v.consistent

    def test_degenerate_params(self):
        with pytest.raises(DegenerateParams):
            irreducibility_probe(3, MinimalLabel(3, 2, 2), 5, 4)
        with pytest.raises(DegenerateParams):
            irreducibility_probe(2, MinimalLabel(2, 2, 2), 2, 4)
        with pytest.raises(ValueError, match="9 is not prime"):
            irreducibility_probe(2, MinimalLabel(2, 2, 2), 9, 4)

    def test_paper_probes_rank_each_rational_tower_once(self, fresh_towers, monkeypatch):
        """The four primes probed at each ell = 2 label share its tower's
        radical: the kernel step runs once per level of each tower."""
        calls = []
        real = virasoro.kernel
        monkeypatch.setattr(virasoro, "kernel", lambda m: calls.append(m) or real(m))
        cli.check_probes(cli.ReportEnvelope("t", {}))
        assert virasoro._tower.cache_info().misses == len(canonical_labels(2))
        assert len(calls) == len(canonical_labels(2)) * (cli.PROBE_LEVEL + 1)

    @staticmethod
    def probes_against_the_fp_tower(ell, monkeypatch):
        """Probe every canonical label of ell at several primes to level 8,
        checking each against the F_p engine, its oracle; the number of
        rank drops and of levels ranked whole after their minor."""
        calls = []
        real = virasoro.rank
        monkeypatch.setattr(virasoro, "rank", lambda m: calls.append(m.rows) or real(m))
        drops = fallbacks = 0
        for lab in canonical_labels(ell):
            c, h = central_charge(ell), highest_weight(ell, lab.m, lab.n)
            for p in (7, 11, 13, 17, 19, 23, 37, 101):
                try:
                    over_p = graded_rank(VermaParams.mod_p(c, h, p), 8).levels
                except DegenerateParams:
                    with pytest.raises(DegenerateParams):
                        irreducibility_probe(ell, lab, p, 8)
                    continue
                calls.clear()
                v = irreducibility_probe(ell, lab, p, 8)
                assert [(n, rp) for n, _, rp in v.levels] == [(n, r) for n, _, r in over_p], (lab, p)
                assert [rq for _, rq, _ in v.levels] == [r for r, _, _ in _radical_levels(virasoro._tower(c, h), 8)]
                drops += v.drop_level is not None
                fallbacks += len(calls) - 9
        return drops, fallbacks

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_ranks_mod_p_equal_the_fp_tower(self, ell, monkeypatch):
        """The probe ranks the QQ tower mod p, on the minor C_n where that
        minor keeps the QQ rank and on the whole level where it does not."""
        drops, fallbacks = self.probes_against_the_fp_tower(ell, monkeypatch)
        assert drops > 0
        assert fallbacks > 0

    @pytest.mark.parametrize("ell", [2, 4])
    def test_short_minor_falls_back_to_the_full_level(self, ell, monkeypatch):
        """Mutation: a minor missing one index of C_n certifies nothing, and
        the probe still equals the F_p tower."""
        real = virasoro._radical_levels

        def short(params, n_max):
            return [(r, basis, cols[1:]) for r, basis, cols in real(params, n_max)]

        monkeypatch.setattr(virasoro, "_radical_levels", short)
        _, fallbacks = self.probes_against_the_fp_tower(ell, monkeypatch)
        assert fallbacks > 0

    def test_reproduce_builds_each_tower_once(self, monkeypatch):
        """The paper run builds each Gram level of each (c, h) once, over QQ
        only: the nine minimal-series towers to level 8, shared by the
        Kac-vanishing check and the probes."""
        virasoro._tower.cache_clear()
        built = Counter()
        real = virasoro._build_levels

        def counting(params, n):
            before = len(params._levels)
            real(params, n)
            for level in range(before, len(params._levels)):
                built[params.c, params.h, repr(params.field_), level] += 1

        monkeypatch.setattr(virasoro, "_build_levels", counting)
        cli.reproduce(cli.ReportEnvelope("t", {}))
        assert max(built.values()) == 1
        assert {field_ for _, _, field_, _ in built} == {"QQ"}
        towers = {(c, h) for c, h, _, level in built if level == cli.PROBE_LEVEL}
        assert towers == {
            (central_charge(ell), highest_weight(ell, lab.m, lab.n)) for ell in (2, 3) for lab in canonical_labels(ell)
        }

    def test_kernel_gets_int_rows(self, fresh_towers, monkeypatch):
        """The paper run and a level-11 probe at (4; 3,2) hand `kernel` only
        integer entries: the levels S_n and their minors, never Fractions."""
        real = virasoro.kernel
        calls = []

        def ints_only(m):
            assert all(type(x) is int for row in m for x in row)
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(virasoro, "kernel", ints_only)
        cli.reproduce(cli.ReportEnvelope("t", {}))
        before = len(calls)
        assert irreducibility_probe(4, MinimalLabel(4, 3, 2), 101, 11).consistent
        assert 0 < before < len(calls)

    def test_bad_prime_runs_to_completion(self):
        # experiment: no expected verdict, only that ranks are well defined
        v = irreducibility_probe(2, MinimalLabel(2, 2, 1), 7, 6)
        assert v.verdict in ("consistent", "rank-drop")
        for _, rq, rp in v.levels:
            assert rp <= rq


@pytest.fixture
def fresh_towers():
    """Cold QQ tower caches, cleared again after the test, which may alter a
    cached level."""
    virasoro._tower.cache_clear()
    yield
    virasoro._tower.cache_clear()


def cached_level(ell, label, n):
    """The cached QQ tower at the label's minimal-series point, built to
    level 8, and its level n as lists."""
    params = virasoro._tower(central_charge(ell), highest_weight(ell, label.m, label.n))
    _build_levels(params, 8)
    return params, [list(row) for row in params._levels[n]]


def d_min(ell, label):
    return min(label.m * label.n, (ell + 1 - label.m) * (ell + 2 - label.n))


LABELS_2_3 = [(ell, lab) for ell in (2, 3) for lab in canonical_labels(ell)]


class TestKacVanishing:
    def test_vacuum_label(self):
        rep = kac_vanishing_check(2, MinimalLabel(2, 1, 1), 4)
        assert rep.d_min == 1
        assert rep.passed

    def test_h_one_sixteenth(self):
        rep = kac_vanishing_check(2, MinimalLabel(2, 2, 2), 4)
        assert rep.d_min == 2
        params = VermaParams.rational(central_charge(2), highest_weight(2, 2, 2))
        _build_levels(params, 2)
        assert F(determinant(params._levels[1]), params._scale) == F(1, 8)
        assert determinant(params._levels[2]) == 0
        assert rep.levels == ((1, False), (2, True), (3, True), (4, True))
        assert rep.passed

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_flags_are_zero_determinants(self, ell):
        for lab, params in minimal_points(ell):
            rep = kac_vanishing_check(ell, lab, 8)
            _build_levels(params, 8)
            assert rep.levels == tuple((n, determinant(params._levels[n]) == 0) for n in range(1, 9))
            assert rep.passed

    def test_runs_no_bareiss(self, fresh_towers):
        before = dict(exact.ELIMINATIONS)
        for ell, lab in LABELS_2_3:
            kac_vanishing_check(ell, lab, 8)
        assert exact.ELIMINATIONS["determinant"] == before["determinant"]
        assert exact.ELIMINATIONS["mod-cert-prime"] > before["mod-cert-prime"]

    @pytest.mark.parametrize("ell,lab", [(ell, lab) for ell, lab in LABELS_2_3 if d_min(ell, lab) > 1])
    def test_zeroed_row_below_d_min_fails(self, fresh_towers, ell, lab):
        for n in range(1, d_min(ell, lab)):
            params, rows = cached_level(ell, lab, n)
            rows[-1] = [0] * len(rows)
            params._levels[n] = tuple(map(tuple, rows))
            rep = kac_vanishing_check(ell, lab, 8)
            assert (n, True) in rep.levels
            assert not rep.passed
            virasoro._tower.cache_clear()

    @pytest.mark.parametrize("ell,lab", LABELS_2_3)
    def test_perturbed_entry_at_d_min_fails(self, fresh_towers, ell, lab):
        """One diagonal entry of S_{d_min} moved where the radical vector is
        nonzero: the radical has dimension one there, so the cofactor of
        that entry is nonzero and the level becomes regular."""
        n = d_min(ell, lab)
        params, rows = cached_level(ell, lab, n)
        (w,) = exact.kernel(params._levels[n])
        i = next(i for i, x in enumerate(w) if x)
        rows[i][i] += 1
        params._levels[n] = tuple(map(tuple, rows))
        assert determinant(params._levels[n]) != 0
        rep = kac_vanishing_check(ell, lab, 8)
        assert (n, False) in rep.levels
        assert not rep.passed

    @pytest.mark.parametrize("ell,lab", LABELS_2_3)
    @pytest.mark.parametrize("shift", [0, 1, 3])
    def test_perturbed_entry_at_or_above_d_min_keeps_exact_flags(self, fresh_towers, ell, lab, shift):
        """A moved entry at or above d_min leaves every flag equal to
        (det S_n == 0), whether or not the witness still proves it."""
        n = d_min(ell, lab) + shift
        params, rows = cached_level(ell, lab, n)
        rows[0][-1] += 1
        params._levels[n] = tuple(map(tuple, rows))
        rep = kac_vanishing_check(ell, lab, 8)
        expected = tuple((k, determinant(params._levels[k]) == 0) for k in range(1, 9))
        assert rep.levels == expected
        assert rep.passed == all(flag == (k >= rep.d_min) for k, flag in expected)

    def test_ell3_label21(self):
        rep = kac_vanishing_check(3, MinimalLabel(3, 2, 1), 4)
        assert rep.d_min == 2
        assert rep.passed

    def test_noncanonical_rejected(self):
        with pytest.raises(ValueError):
            kac_vanishing_check(2, MinimalLabel(2, 1, 2), 3)


class TestPBWVector:
    def test_zero_coefficients_pruned(self):
        params = VermaParams.rational(F(1, 2), F(0))
        out = apply_mode(1, basis_vector((1,)), params)  # 2h = 0
        assert out.terms == ()

    def test_homogeneous(self):
        v = basis_vector((3, 2, 1))
        assert v.degree == 6
        assert isinstance(v, PBWVector)
