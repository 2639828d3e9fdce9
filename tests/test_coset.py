from fractions import Fraction as F

import pytest

from virmod import cli, coset
from virmod.coset import (
    AffineWeight,
    CosetSummand,
    GkoReport,
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


def gko_verify_oracle(ell):
    """The structural checks on the `CosetSummand` records of `gko_summands`:
    a `MinimalLabel` and a Fraction depth per summand."""
    part_ok = labels_ok = depths_ok = mult_ok = True
    total = 0
    for n in range(ell):
        for eps in (0, 1):
            summands = gko_summands(ell, n, eps)
            total += len(summands)
            expected_js = {j for j in range(ell + 1) if (j - n - eps) % 2 == 0}
            js = [s.j for s in summands]
            if sorted(js) != sorted(expected_js) or len(set(js)) != len(js):
                part_ok = False
            if any(not s.label.is_canonical for s in summands):
                labels_ok = False
            if any(s.depth.denominator != 1 or s.depth.numerator < 0 for s in summands):
                depths_ok = False
            if len({(s.j, s.label) for s in summands}) != len(summands):
                mult_ok = False
    return GkoReport(ell, part_ok, labels_ok, depths_ok, mult_ok, total)


def mutate_one_row(monkeypatch, ell, cell, mutation):
    """Patches `coset._summand_rows` so that at `ell` the second row of the
    (n, eps) cell `cell`, a list [j, m, k, branch, num], passes through
    `mutation` with the first row; every other row is unchanged."""
    real = coset._summand_rows

    def rows(at_ell, n, eps):
        out = [list(r) for r in real(at_ell, n, eps)]
        if (at_ell, n, eps) == (ell, *cell):
            mutation(out[0], out[1])
        return map(tuple, out)

    monkeypatch.setattr(coset, "_summand_rows", rows)


def depth_off_by_one(first, row):
    row[4] += 1


def label_k_above_m(first, row):
    row[2] = row[1] + 1


def j_repeated(first, row):
    row[0] = first[0]


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

    @pytest.mark.parametrize("ell", range(2, 61))
    def test_matches_record_oracle(self, ell):
        assert gko_verify(ell) == gko_verify_oracle(ell)

    @pytest.mark.parametrize(
        "mutation, flag",
        [
            (depth_off_by_one, "depths_ok"),
            (label_k_above_m, "labels_canonical_ok"),
            (j_repeated, "index_partition_ok"),
        ],
    )
    @pytest.mark.parametrize("ell, cell", [(2, (0, 0)), (9, (4, 1)), (20, (0, 0)), (20, (18, 1))])
    def test_mutated_row_fails(self, ell, cell, mutation, flag, monkeypatch):
        mutate_one_row(monkeypatch, ell, cell, mutation)
        rep = gko_verify(ell)
        assert not rep.passed and not getattr(rep, flag)
        assert all(gko_verify(k).passed for k in range(2, 21) if k != ell)
        env = cli.ReportEnvelope("test", {})
        cli.check_gko(env)
        failed = [r["name"] for r in env.results if r["status"] == "fail"]
        assert failed == [f"gko ell={ell}"]

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
