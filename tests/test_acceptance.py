"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact (no tolerances); the stated runtime budgets are
enforced with wall-clock assertions.
"""
import random
import time
from fractions import Fraction as F

import pytest

from virmod import cli, weights
from virmod.cli import EXPECTED_D5, ReportEnvelope, run
from virmod.exact import QQ, DenseMatrix
from virmod.virasoro import VermaParams, gram_matrix
from test_virasoro import gram_oracle
from test_weights import interval_values


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_check(check):
    """Run one entry of the reproduce-paper catalogue into a fresh report."""
    env = ReportEnvelope("acceptance", {})
    check(env)
    return env.results


def passes(rows, names):
    """Every row is named as expected, in order, and none has failed."""
    return [r["name"] for r in rows] == names and all(r["status"] != "fail" for r in rows)


def test_criterion_1_bad_prime_examples(capsys):
    t0 = time.monotonic()
    expected = {
        2: [2, 7],
        3: [2, 3, 7, 13, 17],
        4: [p for p in weights.primes_upto(33) if p not in (5, 19, 29, 31)],
        5: [p for p in weights.primes_upto(52) if p not in (7, 29, 41, 43, 47)],
        6: [p for p in weights.primes_upto(75) if p not in (7, 41, 71, 73)],
    }
    ok = all(weights.bad_primes(ell) == exp for ell, exp in expected.items())
    elapsed = time.monotonic() - t0
    # the non-prime 9 in the published ell=3 list must surface as an info note
    assert run(["bad-primes", "--ell", "3"]) == 0
    ok = ok and "ell3-nonprime-9" in capsys.readouterr().out
    ok = ok and elapsed < 1.0
    report("1 bad-prime examples", ok)


def test_criterion_2_interval_decomposition():
    t0 = time.monotonic()
    rows = run_check(cli.check_collision_set)
    ok = passes(rows, ["collision-set intervals ell=2..100", "collision-set extremes ell=2..100"])
    ok = ok and time.monotonic() - t0 < 10.0
    report("2 interval decomposition ell=2..100", ok)


def test_criterion_3_printed_matrix():
    rows = run_check(cli.check_difference_table)
    got = weights.d_matrix(5)
    ok = passes(rows, ["difference-table ell=5"])
    ok = ok and got == EXPECTED_D5 and got[0] == [2, 4, 10, 16, 22, 28] and got[-1][-1] == 28
    report("3 printed 9x6 matrix at ell=5", ok)


def test_criterion_4_g_identity():
    rows = run_check(cli.check_g_identity)
    ok = passes(rows, ["g-identity corrected range ell=2..100", "g-identity published range ell=2"])
    # the published range fails at ell=2: {8, 9} are missing
    published = set(interval_values(weights.g_set(2, corrected=False)))
    corrected = set(interval_values(weights.g_set(2, corrected=True)))
    ok = ok and corrected - published == {8, 9}
    ok = ok and set(interval_values(weights.g_blocks(2))) != published
    report("4 g-identity (corrected range)", ok)


def test_criterion_5_remark_suite():
    rows = run_check(cli.check_neighbour_primes)
    ok = passes(rows, ["neighbour-prime/excluded-square suite ell=2..100"])
    report("5 neighbour-prime / excluded-square suite", ok)


def test_criterion_6_gram_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        c = F(rng.randint(-30, 30), rng.randint(1, 10))
        h = F(rng.randint(-30, 30), rng.randint(1, 10))
        params = VermaParams.rational(c, h)
        for level in range(4):
            got = [list(r) for r in gram_matrix(params, level).entries]
            if got != gram_oracle(c, h, level):
                ok = False
    for _ in range(5):
        c = F(rng.randint(-30, 30), rng.randint(1, 10))
        h = F(rng.randint(-30, 30), rng.randint(1, 10))
        expected = DenseMatrix(QQ, ((4 * h + c / 2, 6 * h), (6 * h, 8 * h * h + 4 * h)))
        if gram_matrix(VermaParams.rational(c, h), 2) != expected:
            ok = False
    ok = ok and time.monotonic() - t0 < 5.0
    report("6 Gram engine vs word oracle", ok)


def test_criterion_7_kac_vanishing():
    t0 = time.monotonic()
    rows = run_check(cli.check_kac_vanishing)
    labels = [(ell, lab) for ell in (2, 3) for lab in weights.canonical_labels(ell)]
    ok = passes(rows, [f"vanishing ell={ell} label=({lab.m},{lab.n})" for ell, lab in labels])
    # each label's first singular level, as reported, against the formula
    for r, (ell, lab) in zip(rows, labels):
        d_min = min(lab.m * lab.n, (ell + 1 - lab.m) * (ell + 2 - lab.n))
        ok = ok and r["detail"] == f"first zero at level {d_min}"
    ok = ok and time.monotonic() - t0 < 60.0
    report("7 Kac vanishing pattern ell=2,3", ok)


def test_criterion_8_probe_evidence():
    t0 = time.monotonic()
    rows = run_check(cli.check_probes)
    names = []
    for lab in weights.canonical_labels(2):
        names += [f"probe ell=2 label=({lab.m},{lab.n}) p={p}" for p in (11, 13, 101)]
        names.append(f"probe ell=2 label=({lab.m},{lab.n}) p=7 (experiment)")
    ok = passes(rows, names) and cli.PROBE_LEVEL == 8
    # experiment at the bad prime: record the verdict, assert nothing
    for r in rows:
        if r["name"].endswith("(experiment)"):
            print(f"  {r['name']} -> {r['detail']}")
    ok = ok and time.monotonic() - t0 < 120.0
    report("8 probe consistency above the bound", ok)


def test_criterion_9_gko_suite():
    t0 = time.monotonic()
    rows = run_check(cli.check_gko)
    ok = passes(rows, [f"gko ell={ell}" for ell in range(2, 21)])
    ok = ok and time.monotonic() - t0 < 5.0
    report("9 coset structural suite ell=2..20", ok)


def test_criterion_10_table1_audit():
    rows = run_check(cli.check_table1)
    ok = passes(rows, [f"table1 ell={ell}" for ell in range(2, 9)])
    # each row's detail is "p_max_known < bound"
    ok = ok and [int(r["detail"].split(" < ")[1]) for r in rows] == [7, 18, 33, 52, 75, 102, 133]
    report("10 reducible-Weyl-module table audit", ok)


def test_criterion_11_reproduce_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = run(["reproduce-paper", "--json", str(a)])
    code2 = run(["reproduce-paper", "--json", str(b)])
    ok = code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes()
    report("11 reproduce-paper deterministic aggregate", ok)
