import random
import time
from fractions import Fraction as F
from functools import partial
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virmod import cli, weights
from virmod.exact import is_prime, reduce_mod_p
from virmod.weights import (
    IntervalSet,
    MinimalLabel,
    PrimeClassification,
    _classes,
    _is_bad_dividing_d,
    b_set_bruteforce,
    b_set_intervals,
    b_set_marks,
    bad_primes,
    canonical_labels,
    central_charge,
    classify_prime,
    collision_count,
    d_matrix,
    degenerate_count,
    g_blocks,
    g_set,
    highest_weight,
    in_b_set_below_top,
    is_bad_prime,
    primes_between,
    primes_upto,
    verify_prop_h,
    verify_prop_x,
)


def weight_numerator(ell, m, n):
    """The integer (m(l+2) - n(l+1))^2 - 1, i.e. 4(l+1)(l+2) * h_{m,n}."""
    return (m * (ell + 2) - n * (ell + 1)) ** 2 - 1


def x_of(lab):
    return lab.m * (lab.ell + 2) - lab.n * (lab.ell + 1)


def interval_values(s):
    """Every integer of an IntervalSet, ascending."""
    return [v for a, b in s.intervals for v in range(a, b + 1)]


def intervals_normalized(ivs):
    """The IntervalSet of the union of closed intervals given in any order,
    sorted, with overlapping and adjacent intervals merged; empty ones are
    dropped."""
    merged = []
    for a, b in sorted((a, b) for a, b in ivs if a <= b):
        if merged and a <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalSet(tuple((a, b) for a, b in merged))


def intervals_from_values(values):
    """The IntervalSet of a collection of integers."""
    return intervals_normalized((v, v) for v in values)


def is_bad_oracle(classes, p):
    """The verdict from the class of every weight, as `residues_oracle`
    gives them: fewer distinct classes than defined weights; p = 2 is bad by
    convention."""
    if p == 2:
        return True
    defined = [r for r in classes if r is not None]
    return len(set(defined)) < len(defined)


def primes_dividing_d(ell):
    return [p for p in primes_upto(ell + 2) if 4 * (ell + 1) * (ell + 2) % p == 0]


def mirror(lab):
    """The other label (l+1-m, l+2-n) of lab's weight."""
    return MinimalLabel(lab.ell, lab.ell + 1 - lab.m, lab.ell + 2 - lab.n)


def all_labels(ell):
    """Every label (m, n) of ell, canonical or not, sorted."""
    return [MinimalLabel(ell, m, n) for m in range(1, ell + 1) for n in range(1, ell + 2)]


def realized_differences(ell):
    """The values |x_a + x_b| and |x_a - x_b| over the pairs of distinct canonical labels."""
    xs = [x_of(lab) for lab in canonical_labels(ell)]
    vals = set()
    for i, xa in enumerate(xs):
        for xb in xs[i + 1 :]:
            vals.add(abs(xa + xb))
            vals.add(abs(xa - xb))
    return vals


def b_set_tuple_oracle(ell):
    """Quadruple-loop enumeration over (m, n, m', n'); independent of the
    sum-based enumeration used by b_set_bruteforce."""
    vals = set()
    for m in range(1, ell + 1):
        for mp in range(1, ell + 1):
            for n in range(1, ell + 2):
                for np_ in range(1, ell + 2):
                    v = abs((m + mp) * (ell + 2) - (n + np_) * (ell + 1))
                    if v:
                        vals.add(v)
    return sorted(vals)


def b_set_sum_loop_oracle(ell):
    """Value-by-value double loop over the sums s = m+m' and t = n+n', both
    signs of s(l+2) - t(l+1) taken.  `b_set_marks` marks only the positive
    values, as (s, t) -> (2l+2-s, 2l+4-t) pairs each value with its
    negative; this loop does not rely on that pairing."""
    vals = set()
    for s in range(2, 2 * ell + 1):
        for t in range(2, 2 * ell + 3):
            v = abs(s * (ell + 2) - t * (ell + 1))
            if v:
                vals.add(v)
    return sorted(vals)


def classify_oracle(ell, p):
    """Fraction-by-fraction classifier: reduce each canonical weight with
    reduce_mod_p and bucket the labels by residue; independent of the
    integer-residue tables classify_prime uses."""
    cc_defined = central_charge(ell).denominator % p != 0
    if p == 2:
        return PrimeClassification(ell, 2, "bad", (), (), cc_defined)
    residues = {}
    degenerate = []
    for lab in canonical_labels(ell):
        r = reduce_mod_p(highest_weight(ell, lab.m, lab.n), p)
        if r is not None:
            residues.setdefault(r, []).append(lab)
        else:
            degenerate.append(lab)
    collisions = []
    for labs in residues.values():
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                collisions.append((labs[i], labs[j]))
    status = "bad" if collisions else "good"
    return PrimeClassification(ell, p, status, tuple(sorted(collisions)), tuple(degenerate), cc_defined)


def residues_oracle(ell, primes):
    """For each p in `primes`, lazily: p and the class of each canonical
    weight from a gcd per label: N mod p for p not dividing D, else
    n * d^-1 mod p of the reduced fraction n/d = N/D, None where p divides d."""
    den = 4 * (ell + 1) * (ell + 2)
    nums = [weight_numerator(ell, lab.m, lab.n) for lab in canonical_labels(ell)]
    reduced = [(N // gcd(N, den), den // gcd(N, den)) for N in nums]
    return (
        (p, [N % p for N in nums] if den % p else [n * pow(d, -1, p) % p if d % p else None for n, d in reduced])
        for p in primes
    )


def exact_power_in_d(ell, p):
    """p^e, the largest power of p dividing D = 4(l+1)(l+2)."""
    den, pe = 4 * (ell + 1) * (ell + 2), 1
    while den % (pe * p) == 0:
        pe *= p
    return pe


def label_index(ell):
    """The index in `canonical_labels(ell)` of each label's x = m(l+2) - n(l+1)."""
    return {x_of(lab): i for i, lab in enumerate(canonical_labels(ell))}


def classes_as_residues(ell, p):
    """The stream `_classes(ell, p)` in the form of `residues_oracle`: one
    entry per label, None where the stream has none, and each class
    c = x^2 mod p^{e+1} as the oracle's residue, (c - 1)/p^e: N mod p off D,
    and on D times the unit (D/p^e)^-1 of the image.  No x comes twice."""
    pe = exact_power_in_d(ell, p)
    unit = pow(4 * (ell + 1) * (ell + 2) // pe, -1, p) if pe > 1 else 1
    index = label_index(ell)
    out = [None] * len(index)
    for x, c in _classes(ell, p):
        i = index[x]
        assert out[i] is None and c == x * x % (pe * p), x
        out[i] = (c - 1) // pe * unit % p
    return out


def d_matrix_full(ell):
    """The full (2l-1) x (2l+1) difference table over all column sums; the
    oracle for B_l as a set of table entries."""
    rows = [s * (ell + 2) for s in range(2, 2 * ell + 1)]
    cols = [t * (ell + 1) for t in range(2, 2 * ell + 3)]
    return [[abs(c - r) for c in cols] for r in rows]


def g_set_scan_oracle(ell, corrected):
    """The good-candidate set by testing each integer of the range against B_l."""
    top = 2 * ell * ell + (2 * ell if corrected else ell) - 3
    b = set(interval_values(b_set_intervals(ell)))
    return intervals_from_values(v for v in range(1, top + 1) if v not in b)


class TestScalars:
    def test_central_charges(self):
        assert central_charge(2) == F(1, 2)
        assert central_charge(3) == F(7, 10)
        assert central_charge(4) == F(4, 5)

    def test_central_charge_range(self):
        with pytest.raises(ValueError):
            central_charge(1)

    def test_weights(self):
        assert highest_weight(2, 2, 1) == F(1, 2)
        assert highest_weight(2, 2, 2) == F(1, 16)
        assert highest_weight(3, 2, 2) == F(3, 80)

    @pytest.mark.parametrize("ell", range(2, 12))
    def test_vacuum_weight_is_zero(self, ell):
        assert highest_weight(ell, 1, 1) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            highest_weight(2, 3, 1)

    @pytest.mark.parametrize("build", [g_blocks, canonical_labels])
    @pytest.mark.parametrize("ell", [1, 0, -3])
    def test_ell_below_2_rejected(self, build, ell):
        with pytest.raises(ValueError, match="ell must be >= 2"):
            build(ell)


class TestCanonicalize:
    @pytest.mark.parametrize("ell", range(2, 31))
    def test_weight_invariant(self, ell):
        """A label and its mirror have one weight, and exactly one of the two
        is canonical, so `canonical_labels` names each weight once."""
        canonical = set(canonical_labels(ell))
        for lab in all_labels(ell):
            other = mirror(lab)
            assert highest_weight(ell, lab.m, lab.n) == highest_weight(ell, other.m, other.n)
            assert (lab in canonical) == (lab.n <= lab.m)
            assert (lab in canonical) != (other in canonical)

    @pytest.mark.parametrize("ell", range(2, 20))
    def test_canonical_count(self, ell):
        assert len(canonical_labels(ell)) == ell * (ell + 1) // 2


class TestDFactors:
    def test_diagonal_is_zero(self):
        """x_a - x_b vanishes only on the diagonal, and x_a + x_b only where b
        is the mirror of a: the mirror's x is -x_a."""
        for ell in range(2, 9):
            labs = all_labels(ell)
            for a in labs:
                assert x_of(mirror(a)) == -x_of(a)
                for b in labs:
                    assert (x_of(a) == x_of(b)) == (a == b)
                    assert (x_of(a) + x_of(b) == 0) == (b == mirror(a))

    def test_second_max_witness(self):
        assert x_of(MinimalLabel(5, 5, 1)) + x_of(MinimalLabel(5, 5, 2)) == 52 == 2 * 25 + 5 - 3

    @given(
        ell=st.integers(2, 20),
        m=st.integers(1, 20),
        n=st.integers(1, 21),
        mp=st.integers(1, 20),
        np_=st.integers(1, 21),
    )
    @settings(max_examples=200)
    def test_numerator_difference_factors(self, ell, m, n, mp, np_):
        m, mp = min(m, ell), min(mp, ell)
        n, np_ = min(n, ell + 1), min(np_, ell + 1)
        xa, xb = x_of(MinimalLabel(ell, m, n)), x_of(MinimalLabel(ell, mp, np_))
        diff = weight_numerator(ell, m, n) - weight_numerator(ell, mp, np_)
        assert diff == (xa + xb) * (xa - xb)


class TestBSet:
    def test_ell2(self):
        assert b_set_bruteforce(2) == [1, 2, 3, 4, 6, 7, 10]

    @pytest.mark.parametrize("ell", range(2, 13))
    def test_matches_tuple_oracle(self, ell):
        assert b_set_bruteforce(ell) == b_set_tuple_oracle(ell)

    @pytest.mark.parametrize("ell", [*range(2, 101), 150, 300])
    def test_matches_sum_loop_oracle(self, ell):
        assert b_set_bruteforce(ell) == b_set_sum_loop_oracle(ell)

    @pytest.mark.parametrize("ell", range(2, 51))
    def test_extremes(self, ell):
        b = b_set_bruteforce(ell)
        assert b[-1] == 2 * (ell * ell + ell - 1)
        assert b[-2] == 2 * ell * ell + ell - 3

    def test_interval_examples(self):
        assert b_set_intervals(2).intervals == ((1, 4), (6, 7), (10, 10))
        assert b_set_intervals(3).intervals == ((1, 10), (12, 14), (17, 18), (22, 22))

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_intervals_equal_bruteforce(self, ell):
        assert verify_prop_x(ell).passed

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_runs_of_marks_equal_bruteforce(self, ell):
        marks = b_set_marks(ell)
        assert set(marks) <= {0, 1}
        assert IntervalSet.from_marks(marks) == intervals_from_values(b_set_bruteforce(ell))

    @pytest.mark.parametrize("ell", [2, 57, 100])
    @pytest.mark.parametrize("where", [0, 0.5, 1])
    def test_collision_check_catches_a_dropped_value(self, ell, where, monkeypatch):
        """check_collision_set fails when the closed form loses one value at one ell."""
        real = weights.b_set_intervals

        def dropped(k):
            if k != ell:
                return real(k)
            vals = interval_values(real(k))
            del vals[int(where * (len(vals) - 1))]
            return intervals_from_values(vals)

        monkeypatch.setattr(weights, "b_set_intervals", dropped)
        env = cli.ReportEnvelope("test", {})
        cli.check_collision_set(env)
        status = {r["name"]: r["status"] for r in env.results}
        assert status["collision-set intervals ell=2..100"] == "fail"

    @pytest.mark.parametrize("ell", range(2, 51))
    def test_top_block_is_singleton_max(self, ell):
        top = b_set_intervals(ell).intervals[-1]
        assert top == (2 * (ell * ell + ell - 1),) * 2


class TestDMatrix:
    def test_ell5_printed_matrix(self):
        expected = [
            [2, 4, 10, 16, 22, 28],
            [9, 3, 3, 9, 15, 21],
            [16, 10, 4, 2, 8, 14],
            [23, 17, 11, 5, 1, 7],
            [30, 24, 18, 12, 6, 0],
            [37, 31, 25, 19, 13, 7],
            [44, 38, 32, 26, 20, 14],
            [51, 45, 39, 33, 27, 21],
            [58, 52, 46, 40, 34, 28],
        ]
        assert d_matrix(5) == expected

    def test_ell2(self):
        # row labels 8, 12, 16 against column labels 6, 9, 12
        assert d_matrix(2) == [[2, 1, 4], [6, 3, 0], [10, 7, 4]]

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_shape(self, ell):
        m = d_matrix(ell)
        assert len(m) == 2 * ell - 1
        assert all(len(row) == ell + 1 for row in m)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_full_matrix_entries_give_b_set(self, ell):
        entries = {v for row in d_matrix_full(ell) for v in row if v}
        assert sorted(entries) == b_set_bruteforce(ell)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_full_matrix_rotation_symmetry(self, ell):
        a = d_matrix_full(ell)
        assert a == [row[::-1] for row in a[::-1]]

    @pytest.mark.parametrize("table", [d_matrix])
    @pytest.mark.parametrize("ell", [1, 0, -3])
    def test_range(self, table, ell):
        with pytest.raises(ValueError, match="ell must be >= 2"):
            table(ell)


class TestGSet:
    def test_ell2(self):
        assert interval_values(g_set(2, corrected=False)) == [5]
        assert interval_values(g_set(2, corrected=True)) == [5, 8, 9]

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_corrected_matches_block_union(self, ell):
        assert g_set(ell, corrected=True) == g_blocks(ell)

    def test_published_range_fails_at_ell2(self):
        assert g_set(2, corrected=False) != g_blocks(2)

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_matches_scan_oracle(self, ell):
        for corrected in (False, True):
            assert g_set(ell, corrected) == g_set_scan_oracle(ell, corrected)


class TestClassifier:
    def test_ell2_p7_collision(self):
        cls = classify_prime(2, 7)
        assert cls.status == "bad"
        assert cls.collisions == ((MinimalLabel(2, 2, 1), MinimalLabel(2, 2, 2)),)

    def test_ell2_p3_good(self):
        assert classify_prime(2, 3).status == "good"

    def test_ell3_p5_good_with_degenerates(self):
        cls = classify_prime(3, 5)
        assert cls.status == "good"
        assert set(cls.degenerate) == {
            MinimalLabel(3, 2, 2),
            MinimalLabel(3, 3, 2),
            MinimalLabel(3, 3, 3),
        }
        assert not cls.central_charge_defined

    def test_ell3_p13_bad(self):
        assert classify_prime(3, 13).status == "bad"

    def test_p2_bad_by_convention(self):
        assert classify_prime(4, 2).status == "bad"

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            classify_prime(3, 9)

    @pytest.mark.parametrize("ell,p,message", [(3, 9, "9 is not prime"), (1, 3, "ell must be >= 2")])
    def test_is_bad_prime_rejects(self, ell, p, message):
        with pytest.raises(ValueError, match=message):
            is_bad_prime(ell, p)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_matches_oracle_every_prime(self, ell):
        for p in primes_upto(2 * ell * ell + 3 * ell):
            assert classify_prime(ell, p) == classify_oracle(ell, p)
            assert is_bad_prime(ell, p) == (classify_prime(ell, p).status == "bad")

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_drawn(self, data):
        ell = data.draw(st.integers(2, 80), label="ell")
        den = 4 * (ell + 1) * (ell + 2)
        divisors = [q for q in primes_upto(ell + 2) if den % q == 0]
        p = data.draw(
            st.sampled_from(divisors) | st.sampled_from(primes_upto(2 * ell * ell + 3 * ell)),
            label="p",
        )
        assert classify_prime(ell, p) == classify_oracle(ell, p)


    @pytest.mark.parametrize("ell", [2, 3, 10, 61])
    def test_label_at_is_canonical_order(self, ell, monkeypatch):
        """`classify_prime` rebuilds each label from its x and lists the
        pairs in label order, whatever order the classes and their members
        come in: here every x, shuffled, in classes of three."""
        labels = canonical_labels(ell)
        xs = [x_of(lab) for lab in labels]
        random.Random(ell).shuffle(xs)
        classes = [xs[i : i + 3] for i in range(0, len(xs), 3)]
        monkeypatch.setattr(weights, "_collisions", lambda ell, p, limit: (0, classes))
        index = label_index(ell)
        expected = []
        for cls in classes:
            members = sorted(index[x] for x in cls)
            expected += [(labels[i], labels[j]) for k, i in enumerate(members) for j in members[k + 1 :]]
        assert list(classify_prime(ell, 1000000007).collisions) == sorted(expected)

    @pytest.mark.parametrize("ell,p", [(200, 1000000007), (60, 61), (60, 31), (40, 7)])
    def test_builds_labels_only_for_collisions_and_degenerates(self, ell, p, monkeypatch):
        real = weights.MinimalLabel
        built = []

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(weights, "MinimalLabel", counting)
        cls = classify_prime(ell, p)
        involved = {lab for pair in cls.collisions for lab in pair} | set(cls.degenerate)
        assert len(built) == len(involved)


class TestResidues:
    """The classes `_classes` streams, x^2 mod p^{e+1} for the x of each
    weight with an image mod p, against the gcd of every label."""

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_primes_dividing_d(self, ell):
        for p, expected in residues_oracle(ell, primes_dividing_d(ell)[1:]):
            assert classes_as_residues(ell, p) == expected, p

    @pytest.mark.parametrize("ell", range(2, 31))
    def test_every_prime_to_the_window(self, ell):
        """Every odd p: off D the stream runs in label order."""
        index = label_index(ell)
        for p, expected in residues_oracle(ell, primes_upto(2 * ell * ell + 3 * ell)[1:]):
            assert classes_as_residues(ell, p) == expected, p
            if 4 * (ell + 1) * (ell + 2) % p:
                assert [index[x] for x, _ in _classes(ell, p)] == list(range(len(expected))), p


class TestTheRule:
    """The rule of the `weights` docstring, against the gcd of every label:
    with p^e the exact power of the odd prime p in D, a weight has an image
    mod p exactly when x = +-1 (mod p^e), and two such weights share it
    exactly when x_a = +-x_b (mod p^{e+1})."""

    @staticmethod
    def check(ell, primes):
        xs = [x_of(lab) for lab in canonical_labels(ell)]
        for p, classes in residues_oracle(ell, primes):
            pe = exact_power_in_d(ell, p)
            q = pe * p
            assert [r is not None for r in classes] == [x % pe in (1 % pe, -1 % pe) for x in xs], p
            # c is x up to sign mod p^{e+1}: equal residues match equal c
            # exactly when the pairs (residue, c) match the two sides one to one
            pairs = {(r, min(x % q, -x % q)) for x, r in zip(xs, classes) if r is not None}
            assert len(pairs) == len({r for r, _ in pairs}) == len({c for _, c in pairs}), p

    @pytest.mark.parametrize("ell", range(2, 41))
    def test_every_odd_prime_to_the_window(self, ell):
        self.check(ell, primes_upto(2 * ell * ell + 3 * ell)[1:])

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_primes_dividing_d(self, ell):
        self.check(ell, primes_dividing_d(ell)[1:])


class TestBadPrimes:
    def test_examples(self):
        assert bad_primes(2) == [2, 7]
        assert bad_primes(3) == [2, 3, 7, 13, 17]
        assert bad_primes(4) == [p for p in primes_upto(33) if p not in (5, 19, 29, 31)]
        assert bad_primes(5) == [p for p in primes_upto(52) if p not in (7, 29, 41, 43, 47)]
        assert bad_primes(6) == [p for p in primes_upto(75) if p not in (7, 41, 71, 73)]

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_matches_oracle(self, ell):
        bound = 2 * ell * ell + ell - 3
        assert bad_primes(ell) == [p for p in primes_upto(bound) if classify_oracle(ell, p).status == "bad"]

    @pytest.mark.parametrize("ell", range(2, 41))
    def test_bad_primes_live_in_b_set(self, ell):
        b = b_set_intervals(ell)
        bound = 2 * ell * ell + ell - 3
        for p in bad_primes(ell):
            assert p in b and p <= bound


class TestMarksRule:
    """The verdicts from the collision marks (the rule in the `weights`
    docstring) against the residue table they replace."""

    @pytest.mark.parametrize("ell", range(2, 31))
    def test_realized_differences_are_b_set_below_top(self, ell):
        b = set(b_set_bruteforce(ell))
        realized = realized_differences(ell)
        top = 2 * (ell * ell + ell - 1)
        assert realized <= b
        assert b - realized == ({2, top} if ell == 2 else {top})

    @pytest.mark.parametrize("ell", range(2, 41))
    def test_verdict_matches_residue_table(self, ell):
        for p, classes in residues_oracle(ell, primes_upto(2 * ell * ell + 3 * ell)):
            assert is_bad_prime(ell, p) == is_bad_oracle(classes, p), p

    @pytest.mark.parametrize("ell", range(2, 61))
    def test_bad_primes_match_residue_table(self, ell):
        bound = 2 * ell * ell + ell - 3
        expected = [p for p, classes in residues_oracle(ell, primes_upto(bound)) if is_bad_oracle(classes, p)]
        assert bad_primes(ell) == expected

    @pytest.mark.parametrize("ell", [3, 5, 30, 112])
    def test_prop_h_fails_on_a_mark_above_the_bound(self, ell, monkeypatch):
        top = 2 * (ell * ell + ell - 1)
        p = next(q for q in primes_upto(top) if q > 2 * ell * ell + ell - 3)
        real = weights.in_b_set_below_top

        def marked(k, v):
            return v == p or real(k, v)

        monkeypatch.setattr(weights, "in_b_set_below_top", marked)
        report = verify_prop_h(ell)
        assert not report.passed
        assert report.detail == f"bad above bound: [{p}]"

    def test_primes_dividing_d_build_no_marks(self, monkeypatch):
        def tripwire(ell):
            raise AssertionError("b_set_marks ran")

        monkeypatch.setattr(weights, "b_set_marks", tripwire)
        for ell in range(2, 101):
            for q in (ell + 1, ell + 2):
                if is_prime(q):
                    assert not is_bad_prime(ell, q)


class TestMembership:
    """`in_b_set_below_top`, the O(1) rule of the `weights` docstring,
    against the brute-force marks."""

    @pytest.mark.parametrize("ell", [*range(2, 301), 500, 1000, 2000])
    def test_equals_the_marks(self, ell):
        marks = b_set_marks(ell)
        top = 2 * (ell * ell + ell - 1)
        assert len(marks) == top + 1 and marks[0] == 0
        # v = 0..len(marks)+4: the marks below the top, then six values at or above it
        expected = marks[:top] + bytes(6)
        assert bytes(map(partial(in_b_set_below_top, ell), range(len(marks) + 5))) == expected


def trial_division_primes(n):
    return [q for q in range(2, n + 1) if all(q % f for f in range(2, isqrt(q) + 1))]


class TestPrimeSieves:
    def test_primes_upto_matches_trial_division(self):
        primes = trial_division_primes(5000)
        for n in range(-2, 5001):
            assert primes_upto(n) == [q for q in primes if q <= n], n

    @pytest.mark.parametrize("lo", [-3, 0, 1, 2, 3, 4, 9, 10, 11, 48, 49, 50, 997, 1000])
    def test_primes_between_matches_primes_upto(self, lo):
        for hi in [*range(lo - 3, lo + 60), 1000, 1009, 2310, 5000]:
            assert primes_between(lo, hi) == [q for q in primes_upto(hi) if q >= lo], (lo, hi)


def sieve_tripwires(monkeypatch, ell):
    """Make `b_set_marks` raise, and `primes_upto` raise above isqrt of the
    prop-h window top 2l^2+3l: a point verdict needs neither table."""
    real = weights.primes_upto
    limit = isqrt(2 * ell * ell + 3 * ell)

    def marks_tripwire(k):
        raise AssertionError("b_set_marks ran")

    def primes_tripwire(n):
        if n > limit:
            raise AssertionError(f"primes_upto({n}) ran")
        return real(n)

    monkeypatch.setattr(weights, "b_set_marks", marks_tripwire)
    monkeypatch.setattr(weights, "primes_upto", primes_tripwire)


class TestPointVerdictsBuildNoTable:
    """Point verdicts for primes off D, and the prop-h window, take O(1) per
    prime: no collision marks, and no sieve beyond isqrt of the window."""

    def test_prop_h_sieves_only_its_window(self, monkeypatch):
        expected = {}
        for ell in range(2, 201):
            window = [p for p in primes_upto(2 * ell * ell + 3 * ell) if p > 2 * ell * ell + ell - 3]
            expected[ell] = f"checked primes {window}"
        for ell in range(2, 201):
            with monkeypatch.context() as m:
                sieve_tripwires(m, ell)
                report = verify_prop_h(ell)
            assert (report.passed, report.detail) == (True, expected[ell]), ell

    @pytest.mark.parametrize("ell", [2, 3, 12, 30, 113, 1000, 2000])
    def test_good_primes_off_d(self, ell, monkeypatch):
        goods = [1000000007, *primes_between(2 * ell * ell + ell - 2, 2 * ell * ell + 3 * ell)]
        sieve_tripwires(monkeypatch, ell)
        for p in goods:
            assert not is_bad_prime(ell, p)
            assert collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX) == 0
            assert classify_prime(ell, p).status == "good"

    @pytest.mark.parametrize("ell,p,pairs", [(30, 1733, 4), (2000, 7995991, 4), (2000, 4002001, 1999)])
    def test_bad_primes_above_the_square(self, ell, p, pairs, monkeypatch):
        def tripwire(ell, p):
            raise AssertionError("_classes ran")

        sieve_tripwires(monkeypatch, ell)
        monkeypatch.setattr(weights, "_classes", tripwire)
        assert is_bad_prime(ell, p)
        assert collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX) == pairs
        assert len(classify_prime(ell, p).collisions) == pairs


class TestPairsSummingToP:
    """Above l^2+l-2 the colliding pairs are the labels whose x = m(l+2) -
    n(l+1) sum to p (the x-sum rule of `weights._collisions`), against the
    classes N mod p of every label."""

    @pytest.mark.parametrize("ell", range(2, 41))
    def test_matches_the_residue_classes(self, ell):
        low, top = ell * ell + ell - 2, 2 * (ell * ell + ell - 1)
        labels = canonical_labels(ell)
        for p, classes in residues_oracle(ell, primes_between(low + 1, top + 60)):
            members = {}
            for lab, r in zip(labels, classes):
                members.setdefault(r, []).append(lab)
            expected = sorted((a, b) for c in members.values() for i, a in enumerate(c) for b in c[i + 1 :])
            cls = classify_prime(ell, p)
            assert list(cls.collisions) == expected, p
            assert collision_count(ell, p, 10**9) == len(expected), p
            assert cls.degenerate == ()

    @pytest.mark.parametrize("ell,p", [(30, 1733), (2000, 7995991), (2000, 4002001), (1999, 3998003)])
    def test_each_class_is_a_pair_of_sum_p(self, ell, p):
        collisions = classify_prime(ell, p).collisions
        involved = [lab for pair in collisions for lab in pair]
        assert collisions and len(set(involved)) == len(involved)
        assert all(a < b and x_of(a) + x_of(b) == p for a, b in collisions)
        assert list(collisions) == sorted(collisions)


class TestDefinedLabels:
    """The verdict for the odd p dividing D from the weights defined mod p
    (the rule in the `weights` docstring) against the whole residue table."""

    @pytest.mark.parametrize("ell", range(2, 81))
    def test_verdict_matches_residue_table(self, ell):
        for p, classes in residues_oracle(ell, primes_dividing_d(ell)):
            assert _is_bad_dividing_d(ell, p) == is_bad_oracle(classes, p), p

    @pytest.mark.parametrize("ell", range(2, 81))
    def test_defined_labels_are_read_off_the_label(self, ell):
        for p, classes in residues_oracle(ell, primes_dividing_d(ell)[1:]):
            q = ell + 1 if (ell + 1) % p == 0 else ell + 2
            pe = p
            while q % (pe * p) == 0:
                pe *= p
            defined = [lab for lab, r in zip(canonical_labels(ell), classes) if r is not None]
            key = (lambda lab: lab.m) if q == ell + 1 else (lambda lab: lab.n)
            assert defined == [lab for lab in canonical_labels(ell) if key(lab) % pe in (1, pe - 1)], p

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_neighbour_primes_rank_l_plus_1_and_l_labels(self, ell):
        for q, count in ((ell + 1, ell + 1), (ell + 2, ell)):
            if is_prime(q):
                assert len(list(_classes(ell, q))) == count

    def test_verdict_stops_at_the_first_repeat(self, monkeypatch):
        """A repeated class shows within p+1 weights, by pigeonhole."""
        real = weights._classes
        read = []

        def counting(ell, p):
            for r in real(ell, p):
                read.append(r)
                yield r

        monkeypatch.setattr(weights, "_classes", counting)
        for ell in range(2, 101):
            for p in primes_dividing_d(ell)[1:]:
                read.clear()
                bad = _is_bad_dividing_d(ell, p)
                assert (len(read) <= p + 1) if bad else (len(read) == len(list(real(ell, p)))), (ell, p)

    def test_bad_primes_check_no_primality(self, monkeypatch):
        """The p | D verdicts of `bad_primes` (here p = 3 and 23) take primes
        from the sieve and do not test them again."""
        expected, calls = bad_primes(22), []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(weights, "is_prime", counting)
        assert bad_primes(22) == expected
        assert calls == []

    def test_bad_primes_build_no_residue_table(self, monkeypatch):
        """The verdicts build no label: neither the degenerate ones nor
        those of the colliding classes."""
        expected = {ell: bad_primes(ell) for ell in range(2, 61)}

        def tripwire(*args):
            raise AssertionError("a label was built")

        monkeypatch.setattr(weights, "_degenerate_labels", tripwire)
        monkeypatch.setattr(weights, "MinimalLabel", tripwire)
        for ell in range(2, 61):
            assert bad_primes(ell) == expected[ell]
            for p in primes_dividing_d(ell):
                is_bad_prime(ell, p)


class TestCollisionCount:
    """The pair count `classify` checks before listing the pairs."""

    @pytest.mark.parametrize("ell", range(2, 31))
    def test_equals_the_listed_pairs(self, ell):
        for p in primes_upto(2 * ell * ell + 3 * ell):
            count = collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX)
            assert count <= cli.CLASSIFY_PAIRS_MAX
            assert count == len(classify_prime(ell, p).collisions), p

    @pytest.mark.parametrize("ell", [*range(2, 41), 1000, 2000])
    def test_good_primes_off_d_read_no_weights(self, ell, monkeypatch):
        """A good odd p not dividing D takes its verdict from the marks alone."""
        den = 4 * (ell + 1) * (ell + 2)
        window = primes_upto(2 * ell * ell + 3 * ell) if ell <= 40 else []
        good = [p for p in window if den % p and not is_bad_prime(ell, p)] + [1000000007]

        def tripwire(ell, p):
            raise AssertionError("_classes ran")

        monkeypatch.setattr(weights, "_classes", tripwire)
        for p in good:
            cls = classify_prime(ell, p)
            assert (cls.status, cls.collisions, cls.degenerate) == ("good", (), ()), p
            assert collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX) == 0

    def test_largest_case_under_the_cli_limit(self):
        assert collision_count(30, 3, 10**9) == len(classify_prime(30, 3).collisions) == 59830
        for ell in range(2, 31):
            for p in primes_upto(2 * ell * ell + 3 * ell):
                assert collision_count(ell, p, cli.CLASSIFY_PAIRS_MAX) <= 59830, (ell, p)

    @pytest.mark.parametrize("ell", range(13, 41))
    def test_primes_dividing_d_count_the_listed_pairs(self, ell):
        for p in primes_dividing_d(ell):
            assert collision_count(ell, p, 10**9) == len(classify_prime(ell, p).collisions), p

    def test_stops_above_the_limit(self):
        assert collision_count(100, 7, 1000) == 1001 < collision_count(100, 7, 10**9) == 3380770
        assert all(collision_count(30, 3, limit) == limit + 1 for limit in range(100))

    @pytest.mark.parametrize("ell, p, message", [(5, 9, "9 is not prime"), (1, 7, "ell must be >= 2")])
    def test_rejects(self, ell, p, message):
        with pytest.raises(ValueError, match=message):
            collision_count(ell, p, 10)


class TestDegenerateCount:
    """The degenerate-label count `classify` checks before listing them."""

    @pytest.mark.parametrize("ell", range(2, 81))
    def test_equals_the_listed_labels(self, ell):
        """Every prime to the prop-h window at ell <= 12, and every p | D: the
        listed labels are those the oracle gives no class."""
        primes = primes_upto(2 * ell * ell + 3 * ell) if ell <= 12 else primes_dividing_d(ell)
        for p, classes in residues_oracle(ell, primes):
            listed = classify_prime(ell, p).degenerate
            expected = () if p == 2 else tuple(lab for lab, r in zip(canonical_labels(ell), classes) if r is None)
            assert listed == expected, p
            assert degenerate_count(ell, p) == len(listed), p

    def test_most_under_the_cli_limit_at_ell_30(self):
        worst = max(
            collision_count(ell, p, 10**9) + degenerate_count(ell, p)
            for ell in range(2, 31) for p in primes_upto(2 * ell * ell + 3 * ell)
        )
        assert worst == 59830 <= cli.CLASSIFY_PAIRS_MAX
        assert max(degenerate_count(ell, p) for ell in range(2, 31) for p in primes_dividing_d(ell)) == 434

    def test_neighbour_prime_at_the_ell_cap(self):
        assert degenerate_count(1998, 1999) == 1998 * 1999 // 2 - 1999 == 1995002
        assert collision_count(1998, 1999, cli.CLASSIFY_PAIRS_MAX) == 0

    @pytest.mark.parametrize("ell, p, message", [(5, 9, "9 is not prime"), (1, 7, "ell must be >= 2")])
    def test_rejects(self, ell, p, message):
        with pytest.raises(ValueError, match=message):
            degenerate_count(ell, p)


class TestEll1000:
    """bad_primes and verify_prop_h at ell = 1000 under a wall-clock budget;
    they took about 0.5 s and 0.1 s on a busy 2-CPU host."""

    ELL = 1000
    BUDGET_S = 5.0

    def test_bad_primes(self):
        ell = self.ELL
        t0 = time.monotonic()
        bad = bad_primes(ell)
        elapsed = time.monotonic() - t0
        assert elapsed < self.BUDGET_S
        listed = set(bad)
        den = 4 * (ell + 1) * (ell + 2)
        low = ell * ell + ell - 2
        assert all(p in listed for p in primes_upto(low) if den % p)
        b = b_set_intervals(ell)
        assert all(p in b for p in bad if p > low)
        sample = random.Random(ell).sample(primes_upto(2 * ell * ell + 3 * ell), 10)
        for p, classes in residues_oracle(ell, sample):
            assert (p in listed) == is_bad_oracle(classes, p), p

    def test_verify_prop_h(self):
        t0 = time.monotonic()
        report = verify_prop_h(self.ELL)
        assert time.monotonic() - t0 < self.BUDGET_S
        assert report.passed


class TestRemarks:
    @pytest.mark.parametrize("ell", range(2, 101))
    def test_neighbour_primes_are_good(self, ell):
        for q in (ell + 1, ell + 2):
            if is_prime(q):
                assert classify_prime(ell, q).status == "good"

    @pytest.mark.parametrize("ell", range(2, 101))
    def test_squares_not_in_b_set(self, ell):
        b = b_set_intervals(ell)
        assert (ell + 1) ** 2 not in b
        assert (ell + 2) ** 2 not in b


class TestPropH:
    @pytest.mark.parametrize("ell", range(2, 61))
    def test_window_above_bound_is_good(self, ell):
        assert verify_prop_h(ell).passed

    @pytest.mark.parametrize("ell", [1, 0, -2])
    def test_range(self, ell):
        with pytest.raises(ValueError, match="ell must be >= 2"):
            verify_prop_h(ell)

    def test_specific_primes(self):
        assert classify_prime(2, 11).status == "good"
        assert classify_prime(2, 13).status == "good"
        assert classify_prime(3, 19).status == "good"


class TestClosedForms:
    """The interval closed forms are built already sorted, disjoint and
    non-adjacent: each equals its own normalization."""

    @pytest.mark.parametrize("ell", range(2, 301))
    def test_built_normalized(self, ell):
        for s in (b_set_intervals(ell), g_set(ell), g_set(ell, corrected=True), g_blocks(ell)):
            assert s == intervals_normalized(s.intervals)
            assert all(a <= b for a, b in s.intervals)


class TestIntervalSet:
    def test_normalization_merges_adjacent(self):
        s = intervals_normalized([(5, 7), (1, 2), (3, 4), (10, 10)])
        assert s.intervals == ((1, 7), (10, 10))

    def test_from_values(self):
        assert intervals_from_values([3, 1, 2, 7]).intervals == ((1, 3), (7, 7))

    @given(st.sets(st.integers(0, 60)), st.integers(0, 5))
    @settings(max_examples=50)
    def test_from_marks(self, vals, pad):
        marks = bytearray(max(vals, default=-1) + 1 + pad)
        for v in vals:
            marks[v] = 1
        assert IntervalSet.from_marks(marks) == intervals_from_values(vals)

    @given(st.sets(st.integers(0, 60)))
    def test_values_round_trip(self, vals):
        assert interval_values(intervals_from_values(vals)) == sorted(vals)

    @given(st.sets(st.integers(0, 60)))
    def test_membership(self, vals):
        s = intervals_from_values(vals)
        assert [v for v in range(-2, 64) if v in s] == sorted(vals)
