from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb, factorial
from operator import mul
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
    character,
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


def kac_h_mod(r, s, t, q):
    """h_{r,s}(t) = ((r^2-1)t^2 - 2(rs-1)t + s^2-1) / 4t mod q, t a unit mod q."""
    return ((r * r - 1) * t * t - 2 * (r * s - 1) * t + s * s - 1) * pow(4 * t, -1, q) % q


def kac_formula_mod(t, h, level, q):
    """K_N prod_{rs <= N} (h - h_{r,s}(t))^{p(N-rs)} mod q, N = level, with
    K_N = prod_{rs <= N} ((2r)^s s!)^{p(N-rs) - p(N-r(s+1))} (Kac 1979)."""

    def p(k):
        return len(partitions(k)) if k >= 0 else 0

    det = 1
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            e = p(level - r * s)
            k = pow((2 * r) ** s * factorial(s), e - p(level - r * (s + 1)), q)
            det = det * k * pow(h - kac_h_mod(r, s, t, q), e, q) % q
    return det


def fp_determinants(t, h, q, n_max):
    """det S_N mod q for N = 1..n_max, from the F_q tower at
    c = 13 - 6(t + 1/t) and h, as `exact._echelon_mod_p` reads it off."""
    params = VermaParams((13 - 6 * (t + pow(t, -1, q))) % q, h % q, PrimeField(q))
    _build_levels(params, n_max)
    return [exact._echelon_mod_p(params._levels[n], q)[2] for n in range(1, n_max + 1)]


KAC_PRIMES = (1_000_003, 1_000_000_007)

kac_curve_points = st.tuples(
    nonzero_rationals, st.sampled_from([(r, s) for r in range(1, 9) for s in range(1, 8 // r + 1)])
)


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

    def test_equal_the_recursive_oracle(self):
        """The partitions of n, built from the cached ones of n - first,
        are those of plain recursion, in the same order, to n = 25."""

        def oracle(n, cap):
            if n == 0:
                return [()]
            return [(first,) + rest for first in range(min(n, cap), 0, -1) for rest in oracle(n - first, first)]

        for n in range(26):
            assert list(partitions(n)) == oracle(n, n), n

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

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: gram_matrix(VermaParams.rational(F(1, 2), F(1, 16)), -1),
            lambda: graded_rank(VermaParams.rational(F(1, 2), F(1, 16)), -1),
            lambda: graded_rank(VermaParams.mod_p(F(1, 2), F(1, 16), 11), -1),
            lambda: irreducibility_probe(2, MinimalLabel(2, 2, 2), 11, -1),
            lambda: kac_vanishing_check(2, MinimalLabel(2, 2, 2), -3),
            lambda: character(2, MinimalLabel(2, 2, 2), -1),
        ],
        ids=["gram_matrix", "graded_rank-qq", "graded_rank-fp", "irreducibility_probe", "kac_vanishing_check",
             "character"],
    )
    def test_every_entry_point_rejects_a_negative_level(self, entry):
        """A negative level is an error, not an empty verdict that passes."""
        with pytest.raises(ValueError, match="n must be >= 0"):
            entry()

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

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_matches_rocha_caridi_character(self, ell):
        """The QQ graded ranks equal the irreducible character, which the
        probe takes as its rank over QQ: every canonical label to level 12,
        and at ell = 2, 3 and 6 one label, probed deep, to level 16."""
        deep = {2: (2, 2), 3: (2, 1), 6: (4, 3)}
        for lab, params in minimal_points(ell):
            n_max = 16 if (lab.m, lab.n) == deep.get(ell) else 12
            ranks = [r for _, _, r in graded_rank(params, n_max).levels]
            assert ranks == character(ell, lab, n_max), lab

    @pytest.mark.parametrize("ell", range(2, 9))
    def test_character_is_equal_at_the_mirror_label(self, ell):
        """(m, n) and (l+1-m, l+2-n) name one weight, and the probe takes
        labels that are not canonical."""
        for lab in canonical_labels(ell):
            mirror = MinimalLabel(ell, ell + 1 - lab.m, ell + 2 - lab.n)
            assert character(ell, mirror, 16) == character(ell, lab, 16), lab

    def test_character_rejects_a_label_of_another_ell(self):
        with pytest.raises(ValueError, match="at ell = 2, not 3"):
            character(3, MinimalLabel(2, 2, 2), 4)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_radical_basis_is_exact_kernel(self, ell, monkeypatch):
        """K_n spans ker S_n in trailing form, and the columns C_n where no
        vector of K_n ends carry an invertible principal minor of size
        rank S_n.  The levels below d_min have full rank mod `_CERT_PRIME`, so
        the kernel step runs once per level from d_min on.  The images of
        K_{n-1} and K_{n-2} are kept exactly, so it finds new vectors only at
        the levels of the two singular vectors.

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
            d = min(singular)
            start = len(found)
            radical = list(_radical_levels(params, 11))
            assert len(found) == start + 12 - d  # one kernel step per level from d_min
            _build_levels(params, 11)  # after the pass, which skips its certificate on held levels
            for n, (r, basis) in enumerate(radical):
                assert n < d or found[start + n - d] == 0 or n in singular
                level = params._levels[n]
                assert len(basis) == len(partitions(n)) - r
                for v in basis:
                    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in level)
                lasts = [max(j for j, x in enumerate(v) if x) for v in basis]
                assert len(set(lasts)) == len(lasts)
                cols = [j for j in range(len(partitions(n))) if j not in lasts]
                assert sorted(set(cols) | set(lasts)) == list(range(len(partitions(n))))
                assert len(cols) == r
                assert bareiss([[level[i][j] for j in cols] for i in cols])[0] == r

    def test_generic_point_builds_no_level_and_runs_no_kernel(self, monkeypatch):
        """At a generic six-digit point every level to 11 has full rank mod
        `_CERT_PRIME`, which proves it full over QQ: one row-space elimination
        per level from 1 on, no Gram level built and no `kernel` run."""

        def fail(*args):
            raise AssertionError("a Gram level was built or a kernel run")

        monkeypatch.setattr(virasoro, "_build_levels", fail)
        monkeypatch.setattr(virasoro, "kernel", fail)
        before = dict(exact.ELIMINATIONS)
        rep = graded_rank(VermaParams.rational(F(734521, 912346), F(-612345, 555557)), 11)
        assert [r for _, _, r in rep.levels] == [len(partitions(n)) for n in range(12)]
        assert exact.ELIMINATIONS == dict(before, **{"fp-rank": before["fp-rank"] + 11})

    def test_kernel_runs_from_the_first_short_level(self, monkeypatch):
        """At (3; 3,2), d_min = 3: the certificate settles levels 0..2, then
        the levels are built once, to 10, and the kernel step runs at levels
        3..10 alone, first on the whole of S_3."""
        built, steps = [], []
        real_build, real_kernel = virasoro._build_levels, virasoro.kernel
        monkeypatch.setattr(virasoro, "_build_levels", lambda params, n: built.append(n) or real_build(params, n))
        monkeypatch.setattr(virasoro, "kernel", lambda m: steps.append(len(m)) or real_kernel(m))
        lab = MinimalLabel(3, 3, 2)
        rep = graded_rank(VermaParams.rational(central_charge(3), highest_weight(3, 3, 2)), 10)
        assert [r for _, _, r in rep.levels] == character(3, lab, 10)
        assert built == [10]
        assert len(steps) == 8 and steps[0] == len(partitions(3))

    def test_held_levels_skip_the_certificate(self, monkeypatch):
        """When `params` already holds the levels through n_max, as after
        `gram_matrix`, the QQ graded rank runs no row-space certificate and
        gives the ranks of fresh params; with fewer levels held it runs the
        certificate as before."""
        real = virasoro._row_space_mod_p
        for c, h in [(F(734521, 912346), F(-612345, 555557)), (central_charge(3), highest_weight(3, 3, 2))]:
            fresh = [r for _, _, r in graded_rank(VermaParams.rational(c, h), 9).levels]
            params = VermaParams.rational(c, h)
            gram_matrix(params, 9)
            monkeypatch.setattr(virasoro, "_row_space_mod_p", None)  # calling it would raise
            assert [r for _, _, r in graded_rank(params, 9).levels] == fresh
            monkeypatch.setattr(virasoro, "_row_space_mod_p", real)
            before = exact.ELIMINATIONS["fp-rank"]
            assert [r for _, _, r in graded_rank(params, 10).levels][:10] == fresh
            assert exact.ELIMINATIONS["fp-rank"] > before

    @pytest.mark.parametrize(
        "h,steps",
        [(F(exact._CERT_PRIME), [1, 2, 3]), (F(1, exact._CERT_PRIME), [1, 1, 2, 3])],
        ids=["short-at-level-1", "no-certificate"],
    )
    def test_levels_the_certificate_leaves_go_to_kernel(self, h, steps, monkeypatch):
        """h = `_CERT_PRIME` makes G_1 = 2h vanish mod that prime, so the
        certificate is short at level 1 while QQ has full rank: the kernel
        step settles levels 1..3, each whole.  h = 1/`_CERT_PRIME` has no
        image mod it, so there is no certificate and the kernel step runs
        from level 0."""
        sizes = []
        real = virasoro.kernel
        monkeypatch.setattr(virasoro, "kernel", lambda m: sizes.append(len(m)) or real(m))
        rep = graded_rank(VermaParams.rational(F(1), h), 3)
        assert [r for _, _, r in rep.levels] == [1, 1, 2, 3]
        assert sizes == steps

    @given(
        point=st.one_of(
            st.tuples(small_rationals, small_rationals),
            st.tuples(
                st.fractions(max_denominator=10**6),
                st.sampled_from([F(exact._CERT_PRIME), F(1, exact._CERT_PRIME), F(-exact._CERT_PRIME, 3)]),
            ),
            kac_curve_points.map(lambda pt: (13 - 6 * (pt[0] + 1 / pt[0]), kac_h(*pt[1], pt[0]))),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_ranks_are_the_kernel_ranks(self, point):
        """At random rational (c, h), Kac-curve points and points that
        `_CERT_PRIME` divides among them, the QQ graded rank is p(n) less the
        dimension of ker S_n by `exact.kernel`, on levels built apart, at
        every level to 7."""
        c, h = point
        other = VermaParams.rational(c, h)
        _build_levels(other, 7)
        expected = [len(partitions(n)) - len(exact.kernel(other._levels[n])) for n in range(8)]
        assert [r for _, _, r in graded_rank(VermaParams.rational(c, h), 7).levels] == expected

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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ranks_mod_p_are_the_fp_gram_ranks(self, data):
        """Over F_p the graded rank comes from the row spaces carried up by
        L_1 and L_2: at any (c, h) and odd prime p, 3 and a prime near 2^40
        among them, it equals the rank of the F_p engine's whole Gram level
        at every level to 7."""
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 1099511627689]))
        c, h = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        params = VermaParams(c, h, PrimeField(p))
        ranks = [r for _, _, r in graded_rank(params, 7).levels]
        assert ranks == [exact.rank(gram_matrix(params, n)) for n in range(8)]


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

    @pytest.mark.parametrize("q", KAC_PRIMES)
    @pytest.mark.parametrize("t,h", [(123457, 98765), (2, 5), (31337, 271828)])
    def test_determinant_mod_q_is_the_kac_formula(self, t, h, q):
        """Off the Kac curves, det S_N mod q is the Kac formula's value, and
        not 0, at every level to 12."""
        expected = [kac_formula_mod(t, h, n, q) for n in range(1, 13)]
        assert fp_determinants(t, h, q, 12) == expected
        assert 0 not in expected

    @pytest.mark.parametrize("q", KAC_PRIMES)
    @pytest.mark.parametrize("rs", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 4), (3, 2), (2, 5), (4, 3)])
    def test_determinant_mod_q_vanishes_on_kac_curves(self, rs, q):
        """On the curve h = h_{r,s}(t), both sides are 0 from level rs on,
        and equal and nonzero below it."""
        r, s, t = *rs, 123457
        h = kac_h_mod(r, s, t, q)
        dets = fp_determinants(t, h, q, 12)
        assert dets == [kac_formula_mod(t, h, n, q) for n in range(1, 13)]
        assert [n for n, det in enumerate(dets, 1) if det == 0] == list(range(r * s, 13))

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_determinant_mod_q_at_minimal_points(self, ell):
        """At t = (l+2)/(l+1), c is c_l and h_{m,n}(t) the label's weight:
        both sides are 0 from d_min on, and equal and nonzero below it."""
        q = KAC_PRIMES[0]
        t = (ell + 2) * pow(ell + 1, -1, q) % q
        for lab in canonical_labels(ell):
            h = kac_h_mod(lab.m, lab.n, t, q)
            assert h == reduce_mod_p(highest_weight(ell, lab.m, lab.n), q)
            dets = fp_determinants(t, h, q, 12)
            assert dets == [kac_formula_mod(t, h, n, q) for n in range(1, 13)], lab
            assert [n for n, det in enumerate(dets, 1) if det == 0] == list(range(d_min(ell, lab), 13)), lab

    def test_determinant_mod_q_to_level_max(self):
        """The generic point to `cli.LEVEL_MAX`, the deepest level the CLI
        builds."""
        t, h, q = 123457, 98765, KAC_PRIMES[1]
        dets = fp_determinants(t, h, q, cli.LEVEL_MAX)
        assert dets == [kac_formula_mod(t, h, n, q) for n in range(1, cli.LEVEL_MAX + 1)]


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

    def test_label_of_another_ell_rejected(self):
        with pytest.raises(ValueError, match="at ell = 2, not 3"):
            irreducibility_probe(3, MinimalLabel(2, 2, 2), 11, 3)

    def test_probe_and_fp_graded_rank_build_no_gram_level(self, monkeypatch):
        """The probe and the F_p graded rank take their ranks mod p from the
        row spaces, one elimination per level from 1 on: they build no Gram
        level and call no `exact.rank`.  The paper's probes also call no
        `kernel`, as they take their ranks over QQ from the character."""

        def fail(*args):
            raise AssertionError("a Gram level was built or ranked whole")

        monkeypatch.setattr(virasoro, "_build_levels", fail)
        monkeypatch.setattr(exact, "rank", fail)
        monkeypatch.setattr(virasoro, "kernel", fail)
        cli.check_probes(cli.ReportEnvelope("t", {}))
        before = exact.ELIMINATIONS["fp-rank"]
        assert irreducibility_probe(3, MinimalLabel(3, 3, 2), 23, 12).drop_level == 4
        rep = graded_rank(VermaParams.mod_p(F(3, 7), F(5, 11), 1000003), 12)
        assert [r for _, _, r in rep.levels] == [len(partitions(n)) for n in range(13)]
        assert exact.ELIMINATIONS["fp-rank"] == before + 2 * 12

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_ranks_mod_p_equal_the_fp_tower(self, ell):
        """Probe every canonical label of ell at several primes to level 8,
        3 and a prime near 2^40 among them, whose slots are wider than 8
        bytes.  At good and drop primes alike, the probe's ranks mod p equal
        those of the F_p engine's whole Gram levels, its oracle, and its
        ranks over QQ are the character's."""
        drops = 0
        for p in (3, 7, 11, 13, 17, 19, 23, 37, 101, 1099511627689):
            for lab in canonical_labels(ell):
                c, h = central_charge(ell), highest_weight(ell, lab.m, lab.n)
                try:
                    params = VermaParams.mod_p(c, h, p)
                except DegenerateParams:
                    with pytest.raises(DegenerateParams):
                        irreducibility_probe(ell, lab, p, 8)
                    continue
                v = irreducibility_probe(ell, lab, p, 8)
                oracle = [exact.rank(gram_matrix(params, n)) for n in range(9)]
                assert [rp for _, _, rp in v.levels] == oracle, (lab, p)
                assert [rq for _, rq, _ in v.levels] == character(ell, lab, 8)
                drops += v.verdict == "rank-drop"
        assert drops > 0

    def test_ranks_mod_p_at_every_slot_width(self, monkeypatch):
        """`_ranks_mod_p` to level 9 gives the ranks of the F_p engine's
        whole Gram levels at one prime per slot width of its tower, from
        1 byte at p = 3 to 11 bytes at a prime near 2^40, at every label of
        ell = 3 and at a generic point, wherever they reduce mod p.  Its
        bound leaves the elimination room: every unreduced candidate entry
        plus (p-1)^2 per pivot of the candidates stays below it."""
        bounds = []
        real = virasoro._row_space_mod_p

        def checked(top, bottom, p, bound, *basis):
            nb, r, size = exact._slot_bytes(bound), top[0] + bottom[0], len(top[1])
            shift = 8 * nb * bottom[0]
            cols = [(x << shift | y).to_bytes(nb * r, "big") for x, y in zip(top[1], bottom[1])]
            entries = [e for col in cols for e in exact._unpack(col, r)]
            assert max(entries, default=0) + min(r, size) * (p - 1) ** 2 < bound
            bounds.append(bound)
            return real(top, bottom, p, bound, *basis)

        monkeypatch.setattr(virasoro, "_row_space_mod_p", checked)
        points = [(central_charge(3), highest_weight(3, lab.m, lab.n)) for lab in canonical_labels(3)]
        widths = set()
        for p in (3, 11, 101, 65521, exact._CERT_PRIME, 1099511627689):
            for c, h in points + [(F(734521, 912346), F(-612345, 555557))]:
                try:
                    params = VermaParams.mod_p(c, h, p)
                except DegenerateParams:
                    continue
                bounds.clear()
                ranks = list(virasoro._ranks_mod_p(p, params._dh, params._dc2, 9))
                assert ranks == [exact.rank(gram_matrix(params, n)) for n in range(10)], (c, h, p)
                widths |= {exact._slot_bytes(b) for b in bounds}
        assert widths == {1, 2, 4, 8, 11}

    def test_cert_prime_tower_packs_into_8_byte_slots(self, monkeypatch):
        """The certificate's tower to `cli.LEVEL_MAX` keeps 8-byte slots:
        the bound on a candidate entry and its elimination fits 64 bits."""
        bounds = []
        real = virasoro._row_space_mod_p
        monkeypatch.setattr(virasoro, "_row_space_mod_p", lambda *a: bounds.append(a[3]) or real(*a))
        ranks = virasoro._ranks_mod_p(exact._CERT_PRIME, 5, 7, cli.LEVEL_MAX)
        assert next(ranks) == next(ranks) == 1
        assert bounds and {exact._slot_bytes(b) for b in bounds} == {8}

    @pytest.mark.parametrize("n", range(2, cli.LEVEL_MAX + 1))
    def test_l1_matrix_is_echelon(self, n):
        """Row q of L_1's matrix at level n >= 2 (q over partitions(n-1),
        a column per lam in partitions(n), from `_generators(n)[0]`) is zero
        before column (q1+1, q2, ...) and holds the integer q1 + 2 there:
        [L_1, L_{-(q1+1)}] = (q1+2) L_{-q1}, while L_1 on an earlier column
        keeps a larger first part.  So L_1 maps a basis in echelon form,
        the identity among them, to one in echelon form."""
        first = {}  # row -> (its first nonzero column, the entry there)
        for j, terms in enumerate(virasoro._generators(n)[0]):
            for a, b, e, at in terms:
                first.setdefault(at, (j, (a, b, e)))
        lead = virasoro._positions(n)
        assert [first.get(i) for i in range(len(partitions(n - 1)))] == [
            (lead[(q[0] + 1,) + q[1:]], (q[0] + 2, 0, 0)) for q in partitions(n - 1)
        ]

    def test_ranks_mod_p_never_drop_from_level_2(self):
        """By the echelon form of L_1, rank_p G_n >= rank_p G_{n-1} for
        n >= 2 when the odd p exceeds n + 1, so that no q1 + 2 <= n + 1
        vanishes mod p.  Checked at every canonical label of ell = 2..6 at
        six primes to level 14: 3,850 level pairs."""
        pairs = 0
        for ell in range(2, 7):
            for lab in canonical_labels(ell):
                for p in (11, 13, 23, 29, 83, 101):
                    params = VermaParams.mod_p(central_charge(ell), highest_weight(ell, lab.m, lab.n), p)
                    ranks = list(virasoro._ranks_mod_p(p, params._dh, params._dc2, 14))
                    for n in range(2, min(14, p - 2) + 1):
                        assert ranks[n] >= ranks[n - 1], (ell, lab, p, n)
                        pairs += 1
        assert pairs == 3850

    def test_character_off_by_one_is_a_fault(self, monkeypatch, capsys):
        """Mutation: a character one too small at level 2, where no ell = 2
        probe drops, is a fault there, as a fault of the engine or of the
        character would be.  The probe says so, every `check_probes` row
        fails, the p = 7 experiment included, and `virmod probe` exits 1
        with no traceback."""
        real = virasoro.character

        def short(ell, label, n_max):
            chi = real(ell, label, n_max)
            chi[2] -= 1
            return chi

        monkeypatch.setattr(virasoro, "character", short)
        v = irreducibility_probe(2, MinimalLabel(2, 2, 2), 101, 6)
        assert (v.verdict, v.drop_level, v.consistent) == ("fault", 2, False)
        env = cli.ReportEnvelope("t", {})
        cli.check_probes(env)
        assert len(env.results) == 4 * len(canonical_labels(2))
        assert all(r["status"] == "fail" for r in env.results)
        assert [r["detail"] for r in env.results if "p=7" in r["name"]] == ["fault at level 2"] * 3
        assert cli.run(["probe", "--ell", "2", "--label", "2,2", "--prime", "101", "--max-level", "6"]) == 1
        out, err = capsys.readouterr()
        assert "  verdict  fail  fault at level 2" in out
        assert err == ""

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_certified_radical_is_the_kernel(self, ell, monkeypatch):
        """The probe's ranks over QQ, the character's, are the exact ranks:
        at good and drop primes alike, chi_n is the rank of the whole QQ
        level by `exact.kernel` and the rank that the radical pass of
        `graded_rank` gives, and that pass's K_n is a basis of the kernel.
        The pass runs its kernel step at the levels d_min..8 alone."""
        steps = []
        real = virasoro.kernel
        monkeypatch.setattr(virasoro, "kernel", lambda m: steps.append(len(m)) or real(m))
        for lab in canonical_labels(ell):
            chi = character(ell, lab, 8)
            for p in (7, 23, 101):
                try:
                    v = irreducibility_probe(ell, lab, p, 8)
                except DegenerateParams:
                    continue
                assert [rq for _, rq, _ in v.levels] == chi, (lab, p)
            tower = VermaParams.rational(central_charge(ell), highest_weight(ell, lab.m, lab.n))
            steps.clear()
            radical = list(_radical_levels(tower, 8))
            _build_levels(tower, 8)  # after the pass, which skips its certificate on held levels
            for n, (r, basis) in enumerate(radical):
                level = tower._levels[n]
                assert chi[n] == r == len(level) - len(exact.kernel(level)), (lab, n)
                assert len(basis) == len(level) - r
                assert not any(sum(map(mul, row, w)) for w in basis for row in level)
            assert len(steps) == 9 - d_min(ell, lab), lab

    def test_kept_ranks_are_per_prime(self):
        """The ranks mod p are the prime's own: after a good prime probed
        first at (3; 3,2), a drop prime probed next drops at level 4 with
        the ranks of the F_p engine's whole Gram levels."""
        lab = MinimalLabel(3, 3, 2)
        assert irreducibility_probe(3, lab, 101, 11).consistent
        v = irreducibility_probe(3, lab, 23, 11)
        params = VermaParams.mod_p(central_charge(3), highest_weight(3, 3, 2), 23)
        assert v.drop_level == 4
        assert [rp for _, _, rp in v.levels] == [exact.rank(gram_matrix(params, n)) for n in range(12)]

    def test_reproduce_builds_each_tower_once(self, monkeypatch):
        """The paper run builds each Gram level of each (c, h) once, over QQ
        only: levels 0..2 of the five samples of the level-2 check, and no
        level of a minimal-series point, as neither the Kac-vanishing check
        nor the probes build one."""
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
        assert Counter(level for *_, level in built) == {0: 5, 1: 5, 2: 5}
        points = {(c, h) for c, h, _, _ in built}
        assert not {(central_charge(ell), highest_weight(ell, lab.m, lab.n)) for ell, lab in LABELS_2_3} & points

    def test_kernel_gets_int_rows(self, monkeypatch):
        """The paper run hands `kernel` only integer entries: the levels S_n
        and their minors, never Fractions.  A level-11 probe at (4; 3,2)
        adds no `kernel` call."""
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
        assert 0 < before == len(calls)

    def test_bad_prime_runs_to_completion(self):
        # experiment: no expected verdict, only that ranks are well defined
        v = irreducibility_probe(2, MinimalLabel(2, 2, 1), 7, 6)
        assert v.verdict in ("consistent", "rank-drop")
        for _, rq, rp in v.levels:
            assert rp <= rq


def planted_level(monkeypatch, ell, label, n):
    """A new QQ parameter set at the label's minimal-series point, built to
    level 8 and handed to the next `kac_vanishing_check` as its own, and its
    level n as lists, for the test to alter.  It is built by the constructor,
    not by `VermaParams.rational`, which an earlier call may have patched."""
    params = VermaParams(central_charge(ell), highest_weight(ell, label.m, label.n), QQ)
    _build_levels(params, 8)
    monkeypatch.setattr(VermaParams, "rational", lambda c, h: params)
    return params, [list(row) for row in params._levels[n]]


def zero_determinants(params):
    """(n, det S_n == 0) for n = 1..8, on the levels `params` holds."""
    return tuple((n, determinant(params._levels[n]) == 0) for n in range(1, 9))


def zeroed_first_witness(monkeypatch):
    """Patch `kernel` so that its next call returns its first null vector
    with the first nonzero entry zeroed; later calls are exact."""
    calls = []

    def kernel(rows):
        null = exact.kernel(rows)
        if not calls and null:
            w = list(null[0])
            w[next(i for i, x in enumerate(w) if x)] = 0
            null = [tuple(w)] + null[1:]
        calls.append(rows)
        return null

    monkeypatch.setattr(virasoro, "kernel", kernel)


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

    @pytest.mark.parametrize("ell", range(2, 7))
    def test_flags_are_zero_determinants(self, ell):
        for lab, params in minimal_points(ell):
            rep = kac_vanishing_check(ell, lab, 8)
            _build_levels(params, 8)
            assert rep.levels == zero_determinants(params)
            assert rep.passed

    def test_builds_no_gram_level(self):
        """Every label of ell = 2, 3 is settled to level 8 from the row
        spaces and the L_{-1} chain, with no level built."""
        before = dict(virasoro.GRAM_BUILDS)
        for ell, lab in LABELS_2_3:
            assert kac_vanishing_check(ell, lab, 8).passed
        assert virasoro.GRAM_BUILDS == before

    def test_certificate_prime_dividing_the_scale_falls_back(self, monkeypatch):
        """With a certificate prime dividing D, as 5 does at ell = 3, no
        level is certified: levels 1..d_min-1 have no singular vector, so
        each is built and settled by `kernel`, and the flags stay exact."""
        monkeypatch.setattr(virasoro, "_CERT_PRIME", 5)
        for lab, params in minimal_points(3):
            assert params._scale % 5 == 0
            before = virasoro.GRAM_BUILDS["levels"]
            rep = kac_vanishing_check(3, lab, 8)
            assert virasoro.GRAM_BUILDS["levels"] - before == d_min(3, lab) - 1
            _build_levels(params, 8)
            assert rep.levels == zero_determinants(params)
            assert rep.passed

    def test_runs_no_bareiss(self):
        before = dict(exact.ELIMINATIONS)
        for ell, lab in LABELS_2_3:
            kac_vanishing_check(ell, lab, 8)
        assert exact.ELIMINATIONS["determinant"] == before["determinant"]
        assert exact.ELIMINATIONS["mod-cert-prime"] > before["mod-cert-prime"]

    @pytest.mark.parametrize("ell,lab", [(ell, lab) for ell, lab in LABELS_2_3 if d_min(ell, lab) > 1])
    def test_zeroed_row_below_d_min_fails(self, monkeypatch, ell, lab):
        """A certificate rank read one short at a level n below d_min sends
        level n to `kernel` on the built S_n, which finds it regular, so
        every flag stays (det S_n == 0) and the report passes.  With the last
        row of S_n zeroed as well, level n is flagged singular and the
        report fails."""
        real = virasoro._ranks_mod_p
        for n in range(1, d_min(ell, lab)):
            monkeypatch.setattr(
                virasoro, "_ranks_mod_p", lambda *args, n=n: (r - (k == n) for k, r in enumerate(real(*args)))
            )
            params, rows = planted_level(monkeypatch, ell, lab, n)
            rep = kac_vanishing_check(ell, lab, 8)
            assert rep.levels == zero_determinants(params)
            assert rep.passed
            rows[-1] = [0] * len(rows)
            params._levels[n] = tuple(map(tuple, rows))
            rep = kac_vanishing_check(ell, lab, 8)
            assert rep.levels == zero_determinants(params)
            assert rep.levels[:n] == tuple((k, k == n) for k in range(1, n + 1))
            assert not rep.passed

    @pytest.mark.parametrize("ell,lab", LABELS_2_3)
    def test_perturbed_entry_at_d_min_fails(self, monkeypatch, ell, lab):
        """The singular vector that `kernel` gives at d_min, the first short
        level, with its first nonzero entry zeroed, is no witness: the
        singular vectors there are the multiples of one.  So level d_min goes
        to `kernel` on the built S_n, and every flag stays (det S_n == 0).
        With one diagonal entry of S_{d_min} moved as well, where the radical
        vector is nonzero, the level is regular, as the radical has dimension
        one there and the cofactor of that entry is nonzero, and the report
        fails."""
        n = d_min(ell, lab)
        params, rows = planted_level(monkeypatch, ell, lab, n)
        zeroed_first_witness(monkeypatch)
        rep = kac_vanishing_check(ell, lab, 8)
        assert rep.levels == zero_determinants(params)
        assert rep.passed
        (w,) = exact.kernel(params._levels[n])
        i = next(i for i, x in enumerate(w) if x)
        rows[i][i] += 1
        params._levels[n] = tuple(map(tuple, rows))
        assert determinant(params._levels[n]) != 0
        zeroed_first_witness(monkeypatch)
        rep = kac_vanishing_check(ell, lab, 8)
        assert rep.levels == zero_determinants(params)
        assert (n, False) in rep.levels
        assert not rep.passed

    @pytest.mark.parametrize("ell,lab", LABELS_2_3)
    @pytest.mark.parametrize("shift", [0, 1, 3])
    def test_perturbed_entry_at_or_above_d_min_keeps_exact_flags(self, monkeypatch, ell, lab, shift):
        """The witness L_{-1} w carried up from level d_min + shift to n,
        with its first entry moved, sends level n to `kernel` on the built
        S_n, and every flag stays (det S_n == 0).  So it stays with an entry
        of S_n moved as well, whether or not S_n is still singular."""
        n = d_min(ell, lab) + shift + 1
        real = virasoro._lowered
        monkeypatch.setattr(
            virasoro, "_lowered", lambda a, v, m: [x + (m == n and not i) for i, x in enumerate(real(a, v, m))]
        )
        calls = []
        monkeypatch.setattr(virasoro, "kernel", lambda m: calls.append(m) or exact.kernel(m))
        params, rows = planted_level(monkeypatch, ell, lab, n)
        rep = kac_vanishing_check(ell, lab, 8)
        assert rep.levels == zero_determinants(params)
        assert rep.passed
        assert any(m is params._levels[n] for m in calls)
        rows[0][-1] += 1
        params._levels[n] = tuple(map(tuple, rows))
        rep = kac_vanishing_check(ell, lab, 8)
        expected = zero_determinants(params)
        assert rep.levels == expected
        assert rep.passed == all(flag == (k >= rep.d_min) for k, flag in expected)

    def test_ell3_label21(self):
        rep = kac_vanishing_check(3, MinimalLabel(3, 2, 1), 4)
        assert rep.d_min == 2
        assert rep.passed

    @pytest.mark.parametrize("ell", range(2, 7))
    def test_mirror_label_gives_the_same_report(self, ell):
        """Each label with n > m names the point of its mirror, a canonical
        label, and its Kac report and its probe at a good prime (101, above
        every bound 2l^2+l-3 here) are the mirror's but for the label."""
        labels = [MinimalLabel(ell, m, n) for m in range(1, ell + 1) for n in range(m + 1, ell + 2)]
        assert len(labels) == len(canonical_labels(ell))
        for lab in labels:
            other = MinimalLabel(ell, ell + 1 - lab.m, ell + 2 - lab.n)
            assert other in canonical_labels(ell)
            assert kac_vanishing_check(ell, lab, 8) == kac_vanishing_check(ell, other, 8)._replace(label=lab)
            probe = irreducibility_probe(ell, other, 101, 8)
            assert irreducibility_probe(ell, lab, 101, 8) == probe._replace(label=lab)

    def test_label_of_another_ell_rejected(self):
        with pytest.raises(ValueError, match="at ell = 2, not 3"):
            kac_vanishing_check(3, MinimalLabel(2, 2, 1), 4)


class TestPBWVector:
    def test_zero_coefficients_pruned(self):
        params = VermaParams.rational(F(1, 2), F(0))
        out = apply_mode(1, basis_vector((1,)), params)  # 2h = 0
        assert out.terms == ()

    def test_homogeneous(self):
        v = basis_vector((3, 2, 1))
        assert v.degree == 6
        assert isinstance(v, PBWVector)
