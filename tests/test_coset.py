from fractions import Fraction as F

import pytest

from virmod import cli, coset
from virmod.coset import GkoReport, Table1Row, _summand_rows, gko_verify, table1_check
from virmod.weights import MinimalLabel, highest_weight


def sugawara(k, n):
    """Conformal weight n(n+2)/(4(k+2)) of the level-k sl2-hat module with index n."""
    return F(n * (n + 2), 4 * (k + 2))


class TestSugawara:
    """The oracle's Sugawara weights at known values."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_vacuum(self, k):
        assert sugawara(k, 0) == 0

    def test_examples(self):
        assert sugawara(1, 1) == F(1, 4)
        assert sugawara(2, 1) == F(3, 16)


def summands_oracle(ell, n, eps):
    """The summands of V(lambda_{l-1;n}) (x) V(omega_eps) from the branch
    rules, as (j, m, k, branch, depth) with a Fraction depth
    h_j^(l) + h_(m,k) - h_n^(l-1) - h_eps^(1); independent of `_summand_rows`."""
    base = sugawara(ell - 1, n) + sugawara(1, eps)
    out = []
    for j in range(ell + 1):
        if (j - n - eps) % 2:
            continue
        m, k, branch = (n + 1, j + 1, "first") if j <= n else (ell - n, ell + 1 - j, "second")
        out.append((j, m, k, branch, sugawara(ell, j) + highest_weight(ell, m, k) - base))
    return out


class TestSummands:
    def test_ell2_n1_eps0(self):
        assert list(_summand_rows(2, 1, 0)) == [(1, 2, 2, 0)]

    def test_ell2_n0_eps0(self):
        # depth 1 is num 12 * 3 * 4
        assert list(_summand_rows(2, 0, 0)) == [(0, 1, 1, 0), (2, 2, 1, 144)]

    def test_ell2_n0_eps1(self):
        assert list(_summand_rows(2, 0, 1)) == [(1, 2, 2, 0)]


def gko_verify_oracle(ell):
    """The structural checks on the records of `summands_oracle`: a
    `MinimalLabel` and a Fraction depth per summand."""
    part_ok = labels_ok = depths_ok = mult_ok = True
    total = 0
    for n in range(ell):
        for eps in (0, 1):
            summands = [(j, MinimalLabel(ell, m, k), depth) for j, m, k, _, depth in summands_oracle(ell, n, eps)]
            total += len(summands)
            expected_js = {j for j in range(ell + 1) if (j - n - eps) % 2 == 0}
            js = [j for j, _, _ in summands]
            if sorted(js) != sorted(expected_js) or len(set(js)) != len(js):
                part_ok = False
            if any(label.n > label.m for _, label, _ in summands):
                labels_ok = False
            if any(depth.denominator != 1 or depth.numerator < 0 for _, _, depth in summands):
                depths_ok = False
            if len({(j, label) for j, label, _ in summands}) != len(summands):
                mult_ok = False
    return GkoReport(ell, part_ok, labels_ok, depths_ok, mult_ok, total)


def mutate_one_row(monkeypatch, ell, cell, mutation):
    """Patches `coset._summand_rows` so that at `ell` the second row of the
    (n, eps) cell `cell`, a list [j, m, k, num], passes through `mutation`
    with the first row; every other row is unchanged."""
    real = coset._summand_rows

    def rows(at_ell, n, eps):
        out = [list(r) for r in real(at_ell, n, eps)]
        if (at_ell, n, eps) == (ell, *cell):
            mutation(out[0], out[1])
        return map(tuple, out)

    monkeypatch.setattr(coset, "_summand_rows", rows)


def depth_off_by_one(first, row):
    row[3] += 1


def label_k_above_m(first, row):
    row[2] = row[1] + 1


def j_repeated(first, row):
    row[0] = first[0]


class TestVerify:
    @pytest.mark.parametrize("ell", range(2, 41))
    def test_depths_match_sugawara_sum(self, ell):
        den = 12 * (ell + 1) * (ell + 2)
        for n in range(ell):
            for eps in (0, 1):
                rows = [(j, m, k, F(num, den)) for j, m, k, num in _summand_rows(ell, n, eps)]
                assert rows == [(j, m, k, depth) for j, m, k, _, depth in summands_oracle(ell, n, eps)]

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
        den = 12 * (ell + 1) * (ell + 2)
        for n in range(ell):
            for eps in (0, 1):
                rows = list(_summand_rows(ell, n, eps))
                assert sorted(j for j, _, _, _ in rows) == [j for j in range(ell + 1) if (j - n - eps) % 2 == 0]
                for _, m, k, num in rows:
                    lab = MinimalLabel(ell, m, k)
                    assert lab.n <= lab.m
                    assert num % den == 0 and num >= 0

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_branch_labels_structurally_canonical(self, ell):
        for n in range(ell):
            for eps in (0, 1):
                oracle = summands_oracle(ell, n, eps)
                for (j, m, k, _), (oj, _, _, branch, _) in zip(_summand_rows(ell, n, eps), oracle, strict=True):
                    assert j == oj
                    if branch == "first":
                        assert (m, k) == (n + 1, j + 1)
                    else:
                        assert (m, k) == (ell - n, ell + 1 - j)


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
