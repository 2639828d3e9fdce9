from fractions import Fraction as F

import pytest

from virmod.coset import (
    AffineWeight,
    CosetSummand,
    Table1Row,
    gko_summands,
    gko_verify,
    sugawara_weight,
    table1_check,
)
from virmod.weights import MinimalLabel, highest_weight


class TestSugawara:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_vacuum(self, k):
        assert sugawara_weight(k, 0) == 0

    def test_examples(self):
        assert sugawara_weight(1, 1) == F(1, 4)
        assert sugawara_weight(2, 1) == F(3, 16)

    def test_range_check(self):
        with pytest.raises(ValueError):
            sugawara_weight(2, 3)
        with pytest.raises(ValueError):
            AffineWeight(3, -1)


class TestSummands:
    def test_ell2_n1_eps0(self):
        (s,) = gko_summands(2, 1, 0)
        assert s == CosetSummand(1, MinimalLabel(2, 2, 2), "first", F(0))

    def test_ell2_n0_eps0(self):
        a, b = gko_summands(2, 0, 0)
        assert a == CosetSummand(0, MinimalLabel(2, 1, 1), "first", F(0))
        assert b == CosetSummand(2, MinimalLabel(2, 2, 1), "second", F(1))

    def test_ell2_n0_eps1(self):
        (s,) = gko_summands(2, 0, 1)
        assert s == CosetSummand(1, MinimalLabel(2, 2, 2), "second", F(0))

    def test_range_check(self):
        with pytest.raises(ValueError):
            gko_summands(2, 2, 0)
        with pytest.raises(ValueError):
            gko_summands(2, 0, 2)


def depth_oracle(ell, n, eps, s):
    """The depth as a sum of Fractions: h_j^(l) + h_{label} - h_n^(l-1) - h_eps^(1)."""
    base = sugawara_weight(ell - 1, n) + sugawara_weight(1, eps)
    return sugawara_weight(ell, s.j) + highest_weight(ell, s.label.m, s.label.n) - base


class TestVerify:
    @pytest.mark.parametrize("ell", range(2, 41))
    def test_depths_match_sugawara_sum(self, ell):
        for n in range(ell):
            for eps in (0, 1):
                for s in gko_summands(ell, n, eps):
                    assert s.depth == depth_oracle(ell, n, eps, s)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_all_checks_pass(self, ell):
        rep = gko_verify(ell)
        assert rep.passed
        assert rep.total_count == ell * (ell + 1)

    @pytest.mark.parametrize("ell", range(2, 51))
    def test_index_partition_and_depths(self, ell):
        for n in range(ell):
            for eps in (0, 1):
                summands = gko_summands(ell, n, eps)
                js = sorted(s.j for s in summands)
                assert js == [j for j in range(ell + 1) if (j - n - eps) % 2 == 0]
                for s in summands:
                    assert s.label.is_canonical
                    assert s.depth.denominator == 1 and s.depth >= 0

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_branch_labels_structurally_canonical(self, ell):
        for n in range(ell):
            for eps in (0, 1):
                for s in gko_summands(ell, n, eps):
                    if s.branch == "first":
                        assert (s.label.m, s.label.n) == (n + 1, s.j + 1)
                    else:
                        assert (s.label.m, s.label.n) == (ell - n, ell + 1 - s.j)


class TestTable1:
    def test_all_rows_consistent(self):
        rows = table1_check()
        assert [(r.ell, r.p_max_known) for r in rows] == [
            (2, 3), (3, 13), (4, 11), (5, 23), (6, 37), (7, 47), (8, 53),
        ]
        assert [r.bound for r in rows] == [7, 18, 33, 52, 75, 102, 133]
        assert all(r.consistent for r in rows)

    def test_row_verdict(self):
        assert Table1Row(2, 3, 7).consistent
        assert not Table1Row(2, 11, 7).consistent
