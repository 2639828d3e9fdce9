import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from virmod import exact, virasoro
from virmod.cli import (
    CLASSIFY_PAIRS_MAX, ELL_MAX, LEVEL_MAX, PAPER_CHECKS, PRIME_MAX, PROBE_LEVEL, build_parser, run,
)

# A 31-digit prime: trial division does not finish on it.
BIG_PRIME = 1000000000000000000000000000057

# The `virmod reproduce-paper --json` report, byte for byte; refactors keep it.
GOLDEN_REPORT = Path(__file__).parent / "data" / "reproduce_paper.json"
ROOT = Path(__file__).parent.parent


def test_bad_primes_output(capsys):
    assert run(["bad-primes", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "{2, 7}" in out


def test_bad_primes_ell3_notes_nonprime_nine(capsys):
    assert run(["bad-primes", "--ell", "3"]) == 0
    out = capsys.readouterr().out
    assert "{2, 3, 7, 13, 17}" in out
    assert "ell3-nonprime-9" in out


def test_classify(capsys):
    assert run(["classify", "--ell", "2", "--prime", "7"]) == 0
    out = capsys.readouterr().out
    assert "bad" in out
    assert "(2,1)~(2,2)" in out


def test_bset_modes(capsys):
    assert run(["bset", "--ell", "2", "--bruteforce"]) == 0
    assert "{1, 2, 3, 4, 6, 7, 10}" in capsys.readouterr().out
    assert run(["bset", "--ell", "2", "--intervals"]) == 0
    assert "[1,4]" in capsys.readouterr().out


def test_gset_corrected(capsys):
    assert run(["gset", "--ell", "2", "--corrected"]) == 0
    out = capsys.readouterr().out
    assert "{5}" in out and "[8,9]" in out


def test_dmatrix(capsys):
    assert run(["dmatrix", "--ell", "5"]) == 0
    first = [l for l in capsys.readouterr().out.splitlines() if "row" in l][0]
    assert first.split()[2:] == ["2", "4", "10", "16", "22", "28"]


def test_verify_prop_x(capsys):
    assert run(["verify", "prop-x", "--ell-max", "30"]) == 0


def test_verify_table1(capsys):
    assert run(["verify", "table1"]) == 0


def test_verify_gko(capsys):
    assert run(["verify", "gko", "--ell", "5"]) == 0
    assert "30 summands" in capsys.readouterr().out


def test_gram(capsys):
    assert run(["gram", "--c", "1/2", "--h", "1/16", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out and "3/8" in out


def test_gram_mod_p(capsys):
    assert run(["gram", "--c", "1/2", "--h", "1/16", "--level", "2", "--prime", "11"]) == 0


def test_gram_rank_mod_largest_prime_equals_qq_rank(capsys):
    """At the largest prime below 2^40, the largest --prime taken, slots are
    wide chunks; at a generic (c, h) the rank mod p is the full QQ rank."""
    ranks = []
    for prime in ([], ["--prime", "1099511627689"]):
        assert run(["gram", "--c", "3/7", "--h", "5/11", "--level", "8", *prime]) == 0
        ranks += [l.split() for l in capsys.readouterr().out.splitlines() if l.split()[:1] == ["rank"]]
    assert ranks == [["rank", "info", "22"]] * 2


def test_gram_qq_rank_skips_bareiss(capsys, monkeypatch):
    def tripwire(m):
        raise AssertionError("a determinant ran")

    monkeypatch.setattr(exact, "determinant", tripwire)
    before = exact.ELIMINATIONS["determinant"]
    assert run(["gram", "--c", "1/2", "--h", "1/16", "--level", "6"]) == 0
    assert exact.ELIMINATIONS["determinant"] == before
    rank_rows = [l.split() for l in capsys.readouterr().out.splitlines() if l.split()[:1] == ["rank"]]
    assert rank_rows == [["rank", "info", "4"]]


def test_probe_degenerate_is_info(capsys):
    code = run(["probe", "--ell", "3", "--label", "2,2", "--prime", "5", "--max-level", "6"])
    assert code == 0
    assert "degenerate parameters" in capsys.readouterr().out


def test_gram_degenerate_is_info(capsys):
    assert run(["gram", "--c", "1/5", "--h", "1", "--level", "1", "--prime", "5"]) == 0
    assert "degenerate parameters" in capsys.readouterr().out


def test_probe_good_prime(capsys):
    assert run(["probe", "--ell", "2", "--label", "1,1", "--prime", "11", "--max-level", "4"]) == 0
    assert "consistent" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert run(["no-such-command"]) == 2


def test_contract_error_exits_2(capsys):
    assert run(["bad-primes", "--ell", "1"]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gram", "--c", "1/2", "--h", "1/16", "--level", "2", "--prime", "9"], "9 is not prime"),
        (["probe", "--ell", "2", "--label", "2,2", "--prime", "15"], "15 is not prime"),
        (["gram", "--c", "1/0", "--h", "1", "--level", "1"], "argument --c: invalid fraction: '1/0'"),
        (["gram", "--c", "1/2", "--h", "abc", "--level", "1"], "argument --h: invalid fraction: 'abc'"),
        (["gram", "--c", "1/2", "--h", "1/16", "--level", "-1"], "argument --level: must be >= 0"),
        (
            ["probe", "--ell", "2", "--label", "2,2", "--prime", "11", "--max-level", "-1"],
            "argument --max-level: must be >= 0",
        ),
        (["verify", "prop-h", "--ell-max", "1"], "argument --ell-max: must be >= 2"),
        (["verify", "prop-h", "--ell", "3", "--ell-max", "4"], "not allowed with argument --ell"),
        (["dmatrix", "--ell", "1"], "ell must be >= 2"),
        (["dmatrix", "--ell", "0"], "ell must be >= 2"),
        (["verify", "table1", "--ell", "5"], "takes no --ell or --ell-max"),
        (["verify", "table1", "--ell-max", "3"], "takes no --ell or --ell-max"),
        (["verify", "prop-h", "--ell", "0"], "ell must be >= 2"),
        (["verify", "gko", "--ell", "0"], "ell must be >= 2"),
        (["probe", "--ell", "2", "--label", "x", "--prime", "11"], "invalid label: 'x' (expected M,N)"),
        (
            ["probe", "--ell", "2", "--label", "1,2,3", "--prime", "11"],
            "invalid label: '1,2,3' (expected M,N)",
        ),
        (
            ["bad-primes", "--ell", "2", "--json", "/nonexistent/x.json"],
            "cannot write report: [Errno 2] No such file or directory: '/nonexistent/x.json'",
        ),
        (
            ["bad-primes", "--ell", "2", "--csv", "/nonexistent/x.csv"],
            "cannot write report: [Errno 2] No such file or directory: '/nonexistent/x.csv'",
        ),
        (
            ["reproduce-paper", "--timings", "/nonexistent/t.json"],
            "cannot write timings: [Errno 2] No such file or directory: '/nonexistent/t.json'",
        ),
        (["bad-primes", "--ell", str(ELL_MAX + 1)], f"argument --ell: must be <= {ELL_MAX}, got {ELL_MAX + 1}"),
        (["bad-primes", "--ell", "100000"], f"argument --ell: must be <= {ELL_MAX}, got 100000"),
        (
            ["classify", "--ell", str(ELL_MAX + 1), "--prime", "7"],
            f"argument --ell: must be <= {ELL_MAX}, got {ELL_MAX + 1}",
        ),
        (["bset", "--ell", str(ELL_MAX + 1)], f"argument --ell: must be <= {ELL_MAX}, got {ELL_MAX + 1}"),
        (
            ["verify", "prop-h", "--ell", str(ELL_MAX + 1)],
            f"argument --ell: must be <= {ELL_MAX}, got {ELL_MAX + 1}",
        ),
        (
            ["verify", "prop-x", "--ell-max", str(ELL_MAX + 1)],
            f"argument --ell-max: must be <= {ELL_MAX}, got {ELL_MAX + 1}",
        ),
        (
            ["gram", "--c", "1/2", "--h", "1/16", "--level", str(LEVEL_MAX + 1)],
            f"argument --level: must be <= {LEVEL_MAX}, got {LEVEL_MAX + 1}",
        ),
        (
            ["probe", "--ell", "2", "--label", "2,2", "--prime", "11", "--max-level", str(LEVEL_MAX + 1)],
            f"argument --max-level: must be <= {LEVEL_MAX}, got {LEVEL_MAX + 1}",
        ),
        (
            ["classify", "--ell", "2", "--prime", str(PRIME_MAX + 1)],
            f"argument --prime: must be <= {PRIME_MAX}, got {PRIME_MAX + 1}",
        ),
        (
            ["gram", "--c", "1/2", "--h", "1/16", "--level", "2", "--prime", str(PRIME_MAX + 1)],
            f"argument --prime: must be <= {PRIME_MAX}, got {PRIME_MAX + 1}",
        ),
        (
            ["probe", "--ell", "2", "--label", "2,2", "--prime", str(PRIME_MAX + 1)],
            f"argument --prime: must be <= {PRIME_MAX}, got {PRIME_MAX + 1}",
        ),
        (
            ["classify", "--ell", "2", "--prime", str(BIG_PRIME)],
            f"argument --prime: must be <= {PRIME_MAX}, got {BIG_PRIME}",
        ),
        (
            ["classify", "--ell", "100", "--prime", "7"],
            f"classify at ell=100, p=7 would list more than {CLASSIFY_PAIRS_MAX} collision pairs",
        ),
        (["classify", "--ell", "1", "--prime", "7"], "ell must be >= 2"),
        (["classify", "--ell", "5", "--prime", "9"], "9 is not prime"),
    ],
)
def test_bad_input_is_one_line_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_classify_refuses_a_huge_listing_quickly(capsys):
    t0 = time.monotonic()
    assert run(["classify", "--ell", str(ELL_MAX), "--prime", "7"]) == 2
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: classify at ell={ELL_MAX}, p=7 would list more than {CLASSIFY_PAIRS_MAX} collision pairs\n"
    )


def test_classify_refuses_a_huge_degenerate_listing_quickly(capsys):
    """At (1998, 1999) no pair collides, but 1,995,002 labels have no image
    mod p; they are counted, not built."""
    t0 = time.monotonic()
    assert run(["classify", "--ell", "1998", "--prime", "1999"]) == 2
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: classify at ell=1998, p=1999 would list more than {CLASSIFY_PAIRS_MAX} "
        "collision pairs and degenerate labels\n"
    )


def test_verify_prop_h_to_the_ell_cap_quickly(capsys):
    """prop-h sieves only its window and decides each prime in O(1), so the
    whole range to ELL_MAX stays far below a quadratic table per ell."""
    t0 = time.monotonic()
    assert run(["verify", "prop-h", "--ell-max", str(ELL_MAX)]) == 0
    assert time.monotonic() - t0 < 15.0
    out = capsys.readouterr().out
    assert out.count(" pass ") == ELL_MAX - 1


def test_classify_lists_the_largest_case_at_ell_30(capsys):
    assert run(["classify", "--ell", "30", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    collisions = next(line for line in out.splitlines() if line.strip().startswith("collisions"))
    assert collisions.count("~") == 59830 <= CLASSIFY_PAIRS_MAX


@pytest.mark.parametrize(
    "option, value, other, shown",
    [
        ("--c", "-22/5", ["--h", "0"], "'c': '-22/5'"),
        ("--h", "-1/16", ["--c", "1/2"], "'h': '-1/16'"),
        ("--h", "-3", ["--c", "-7/10"], "'h': '-3/1'"),
    ],
)
def test_negative_fraction_option_values(option, value, other, shown, capsys):
    """-N/M is a value, as -3 is: --c -22/5 and --c=-22/5 print the same."""
    outputs = []
    for argv in ([option, value], [f"{option}={value}"]):
        assert run(["gram", *argv, *other, "--level", "2"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out
    assert shown in outputs[0].out


def test_ell_limit_is_inclusive(capsys):
    assert run(["bset", "--ell", str(ELL_MAX)]) == 0
    top = 2 * (ELL_MAX * ELL_MAX + ELL_MAX - 1)
    assert capsys.readouterr().out.split("\n")[1].endswith(f"{{{top}}}")


def test_level_and_prime_limits_are_inclusive():
    parser = build_parser()
    gram = parser.parse_args(
        ["gram", "--c", "1/2", "--h", "1/16", "--level", str(LEVEL_MAX), "--prime", str(PRIME_MAX)]
    )
    assert (gram.level, gram.prime) == (LEVEL_MAX, PRIME_MAX)
    probe = parser.parse_args(
        ["probe", "--ell", "2", "--label", "2,2", "--prime", str(PRIME_MAX), "--max-level", str(LEVEL_MAX)]
    )
    assert (probe.max_level, probe.prime) == (LEVEL_MAX, PRIME_MAX)
    assert parser.parse_args(["classify", "--ell", "2", "--prime", str(PRIME_MAX)]).prime == PRIME_MAX


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bench.py", "--out", "bench.json"], "the following arguments are required: --key"),
    ],
)
def test_script_bad_input_is_usage_error(argv, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_json_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["bad-primes", "--ell", "4", "--json", str(path)]) == 0
    raw = path.read_text(encoding="utf-8")
    reserialized = json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"
    assert raw == reserialized


def test_csv_report(tmp_path, capsys):
    path = tmp_path / "report.csv"
    assert run(["verify", "table1", "--csv", str(path)]) == 0
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["name", "status", "detail"]
    assert len(rows) == 8
    assert all(r[1] == "pass" for r in rows[1:])


def test_reproduce_paper_matches_golden_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["reproduce-paper", "--json", str(path)]) == 0
    assert path.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_reproduce_paper_timings(tmp_path, capsys):
    """--timings writes one wall time per paper check, in report order, and
    leaves the --json report and the table as they are."""
    plain, timed, timings = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "timings.json"
    assert run(["reproduce-paper", "--json", str(plain)]) == 0
    table = capsys.readouterr().out
    assert run(["reproduce-paper", "--json", str(timed), "--timings", str(timings)]) == 0
    assert capsys.readouterr().out == table
    assert timed.read_bytes() == plain.read_bytes() == GOLDEN_REPORT.read_bytes()
    doc = json.loads(timings.read_text(encoding="utf-8"))
    assert list(doc) == [
        "bad-primes", "collision-set", "difference-table", "g-identity", "neighbour-primes",
        "level2-gram", "kac-vanishing", "probes", "gko", "table1",
    ]
    assert list(doc) == [c.__name__.removeprefix("check_").replace("_", "-") for c in PAPER_CHECKS]
    caches = ["_prepend", "_lower", "partitions", "_tower"]
    for v in doc.values():
        assert list(v) == ["wall_s", "caches", "eliminations", "gram"] and v["wall_s"] >= 0
        assert list(v["caches"]) == caches
        assert all(list(c) == ["hits", "misses"] and min(c.values()) >= 0 for c in v["caches"].values())
        assert list(v["eliminations"]) == ["mod-cert-prime", "fp-rank", "multi-modular", "determinant"]
        assert min(v["eliminations"].values()) >= 0
        assert list(v["gram"]) == ["levels", "entries"] and min(v["gram"].values()) >= 0


def test_reproduce_paper_timings_count_eliminations_by_path(tmp_path, capsys):
    """No check runs a determinant.  kac-vanishing certifies its regular levels
    mod the fixed prime and runs no F_p rank.  From cold caches the probes'
    QQ ranks certify mod the fixed prime and fall back to the multi-modular
    kernel where it falls short; each of the 12 probes ranks the minor of
    every level mod p, and the whole level where that minor is singular,
    which happens at some levels but not at most.  Checks that run no
    elimination show none."""
    virasoro._tower.cache_clear()
    timings = tmp_path / "timings.json"
    assert run(["reproduce-paper", "--timings", str(timings)]) == 0
    doc = {name: v["eliminations"] for name, v in json.loads(timings.read_text(encoding="utf-8")).items()}
    assert all(v["determinant"] == 0 for v in doc.values())
    assert doc["kac-vanishing"]["mod-cert-prime"] > 0
    assert doc["kac-vanishing"]["fp-rank"] == 0
    assert 12 * (PROBE_LEVEL + 1) < doc["probes"]["fp-rank"] < 2 * 12 * (PROBE_LEVEL + 1)
    assert doc["probes"]["determinant"] == 0
    assert doc["probes"]["mod-cert-prime"] > doc["probes"]["multi-modular"] > 0
    none = {"mod-cert-prime": 0, "fp-rank": 0, "multi-modular": 0, "determinant": 0}
    for name in ("bad-primes", "collision-set", "g-identity", "neighbour-primes", "level2-gram", "gko", "table1"):
        assert doc[name] == none, name


def test_reproduce_paper_timings_show_the_shared_towers(tmp_path, capsys):
    """From cold tower caches, kac-vanishing builds the nine QQ towers and
    the probes find their three there, one hit per probe."""
    virasoro._tower.cache_clear()
    timings = tmp_path / "timings.json"
    assert run(["reproduce-paper", "--timings", str(timings)]) == 0
    doc = json.loads(timings.read_text(encoding="utf-8"))
    assert doc["kac-vanishing"]["caches"]["_tower"] == {"hits": 0, "misses": 9}
    assert doc["probes"]["caches"]["_tower"] == {"hits": 12, "misses": 0}
    untouched = {"hits": 0, "misses": 0}
    for name in ("bad-primes", "collision-set", "g-identity", "neighbour-primes", "gko", "table1"):
        assert doc[name]["caches"]["_tower"] == doc[name]["caches"]["_lower"] == untouched, name


def test_reproduce_paper_timings_count_gram_builds(tmp_path, capsys):
    """From cold tower caches, kac-vanishing builds levels 1..8 of the nine
    QQ towers, level2-gram levels 1 and 2 of its five samples, and every
    other check none, the probes included."""
    virasoro._tower.cache_clear()
    timings = tmp_path / "timings.json"
    assert run(["reproduce-paper", "--timings", str(timings)]) == 0
    doc = {name: v["gram"] for name, v in json.loads(timings.read_text(encoding="utf-8")).items()}
    sizes = [len(virasoro.partitions(n)) for n in range(1, 9)]
    assert doc["kac-vanishing"] == {"levels": 9 * 8, "entries": 9 * sum(s * s for s in sizes)}
    assert doc["level2-gram"] == {"levels": 10, "entries": 5 * (1 + 4)}
    for name in ("bad-primes", "collision-set", "difference-table", "g-identity", "neighbour-primes",
                 "probes", "gko", "table1"):
        assert doc[name] == {"levels": 0, "entries": 0}, name


def test_import_loads_no_introspection_modules():
    """`import virmod.cli`, in an interpreter without `site`, loads none of
    the modules that `dataclasses` and `typing` pull in: every user pays
    that import before any check runs."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing"]
    code = f"import sys, virmod.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv", [["bset", "--ell", "300", "--bruteforce"], ["dmatrix", "--ell", "400"]], ids=["bset", "dmatrix"]
)
def test_stdout_closed_early_prints_no_traceback(argv):
    """A reader that stops after the first bytes, as `| head -c 20` does,
    ends the run with exit 141 and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "virmod.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr and stderr == ""
