"""A recorded sweep of the CLI: stdout, stderr and the exit code of `cli.run`
for every subcommand and its error paths, replayed byte for byte.

`reproduce-paper` has its own golden report (`tests/data/reproduce_paper.json`)
and is left out.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_sweep.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from virmod.cli import run

SWEEP_FILE = Path(__file__).parent / "data" / "cli_sweep.json"

SWEEP = [
    ["bad-primes", "--ell", "2"],
    ["bad-primes", "--ell", "3"],
    ["bad-primes", "--ell", "30"],
    ["bad-primes", "--ell", "2001"],
    ["bad-primes", "--ell", "1"],
    ["bad-primes", "--ell", "2", "--json", "/nonexistent/x.json"],
    ["classify", "--ell", "2", "--prime", "7"],
    ["classify", "--ell", "5", "--prime", "3"],
    ["classify", "--ell", "3", "--prime", "2"],
    ["classify", "--ell", "8", "--prime", "1000003"],
    ["classify", "--ell", "200", "--prime", "7"],
    ["classify", "--ell", "1998", "--prime", "1999"],
    ["classify", "--ell", "5", "--prime", "9"],
    ["classify", "--ell", "2000", "--prime", "1000000007"],
    ["classify", "--ell", "30", "--prime", "1733"],
    ["classify", "--ell", "2000", "--prime", "7995991"],
    ["classify", "--ell", "4", "--prime", "3"],
    ["classify", "--ell", "7", "--prime", "3"],
    ["classify", "--ell", "25", "--prime", "3"],
    ["classify", "--ell", "6", "--prime", "11"],
    ["classify", "--ell", "1", "--prime", "7"],
    ["bset", "--ell", "4"],
    ["bset", "--ell", "4", "--bruteforce"],
    ["bset", "--ell", "4", "--bruteforce", "--intervals"],
    ["gset", "--ell", "3"],
    ["gset", "--ell", "3", "--corrected"],
    ["dmatrix", "--ell", "5"],
    ["dmatrix", "--ell", "1"],
    ["verify", "prop-h", "--ell", "7"],
    ["verify", "prop-h", "--ell", "113"],
    ["verify", "prop-h", "--ell-max", "60"],
    ["verify", "prop-h", "--ell", "2000"],
    ["verify", "prop-x", "--ell-max", "6"],
    ["verify", "g-identity", "--ell", "4"],
    ["verify", "gko"],
    ["verify", "gko", "--ell-max", "12"],
    ["verify", "gko", "--ell", "0"],
    ["verify", "table1"],
    ["verify", "table1", "--ell", "3"],
    ["verify", "prop-h", "--ell", "3", "--ell-max", "4"],
    ["gram", "--c", "1/2", "--h", "1/16", "--level", "4"],
    ["gram", "--c", "1/2", "--h", "1/16", "--level", "3", "--prime", "2"],
    ["gram", "--c", "7/10", "--h", "3/5", "--level", "4", "--prime", "1099511627689"],
    ["gram", "--c", "1/3", "--h", "1/16", "--level", "3", "--prime", "3"],
    ["gram", "--c", "1/2", "--h", "1/16", "--level", "2", "--prime", "9"],
    ["gram", "--c", "-22/5", "--h", "-1/5", "--level", "3"],
    ["gram", "--c", "1/0", "--h", "1", "--level", "1"],
    ["gram", "--c", "1/2", "--h", "1/16", "--level", "21"],
    ["probe", "--ell", "2", "--label", "2,2", "--prime", "7", "--max-level", "6"],
    ["probe", "--ell", "2", "--label", "1,1", "--prime", "11", "--max-level", "5"],
    ["probe", "--ell", "3", "--label", "3,2", "--prime", "5"],
    ["probe", "--ell", "2", "--label", "x", "--prime", "11"],
    ["probe", "--ell", "4", "--label", "3,2", "--prime", "73", "--max-level", "11"],
    ["probe", "--ell", "4", "--label", "3,2", "--prime", "7", "--max-level", "10"],
    ["probe", "--ell", "3", "--label", "2,2", "--prime", "13", "--max-level", "10"],
    ["probe", "--ell", "6", "--label", "4,3", "--prime", "83", "--max-level", "13"],
    ["probe", "--ell", "3", "--label", "3,2", "--prime", "23", "--max-level", "11"],
    ["probe", "--ell", "4", "--label", "3,2", "--prime", "47", "--max-level", "11"],
    ["probe", "--ell", "4", "--label", "3,2", "--prime", "1099511627689", "--max-level", "11"],
    ["gram", "--c", "4/5", "--h", "21/40", "--level", "9"],
    ["gram", "--c", "1", "--h", "67108859", "--level", "3"],
    ["gram", "--c", "1", "--h", "1/67108859", "--level", "3"],
    ["no-such-command"],
    [],
]


def invoke(argv):
    """stdout, stderr and the exit code of one `cli.run`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


RECORDED = json.loads(SWEEP_FILE.read_text(encoding="utf-8")) if SWEEP_FILE.exists() else []


def test_recorded_sweep_covers_the_sweep():
    assert [r["argv"] for r in RECORDED] == SWEEP


@pytest.mark.parametrize("recorded", RECORDED, ids=lambda r: " ".join(r["argv"]) or "(no arguments)")
def test_replays_byte_for_byte(recorded):
    assert invoke(recorded["argv"]) == recorded


if __name__ == "__main__":
    SWEEP_FILE.write_text(json.dumps([invoke(a) for a in SWEEP], indent=1) + "\n", encoding="utf-8")
