"""The benchmark worker runs against the program as it stands.

`bench/` reads program internals (`VermaParams._memo`, `GramReport.levels`,
the `cache_info` of the engine's caches); traced passes in a subprocess,
one item of each runner in `bench/worker.py`, catch a change that breaks
any of them before a benchmark run does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from virmod.cli import EXPECTED_BAD_PRIMES
from virmod.virasoro import partitions

ROOT = Path(__file__).parent.parent
# sha256 of tests/data/reproduce_paper.json, the `reproduce-paper --json` report
PAPER_SHA256 = "cb83aeb050f978d5eacad4bd5dbe71387cf28b76eeb6f3d77bad1d367017c17c"


def traced_pass(tmp_path, items, **spec):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")],
        input=json.dumps({"trace": 1, "items": items, **spec}),
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [item["error"] for item in result["items"]] == [None] * len(items)
    assert "trace" in result
    return result


def test_traced_worker_pass(tmp_path):
    items = [{"kind": "paper"}, {"kind": "probe", "ell": 2, "m": 2, "n": 2, "p": 11, "level": 4}]
    result = traced_pass(tmp_path, items, report=str(tmp_path / "report.json"))
    assert [item["out"]["sha256"] for item in result["items"]] == [PAPER_SHA256] * 2
    assert result["items"][1]["out"]["verdict"] == "consistent"


def test_traced_worker_pass_of_the_other_runners(tmp_path):
    # A pass with a report adds its sha256 to every item's output, which a
    # list output cannot take, so these run in a pass of their own.
    items = [
        {"kind": "bad_primes", "ell": 4},
        {"kind": "prop_h", "ell": 5},
        {"kind": "generic", "c": "734521/912346", "h": "-612345/555557", "level": 4},
    ]
    result = traced_pass(tmp_path, items)
    bad, prop_h, generic = (item["out"] for item in result["items"])
    assert bad == EXPECTED_BAD_PRIMES[4]
    assert prop_h == {"passed": True}
    assert generic["levels"] == [[n, len(partitions(n)), len(partitions(n))] for n in range(5)]
    names = {span[0] for span in result["trace"]["spans"]}
    assert {"weights.bad_primes", "weights.verify_prop_h", "virasoro.graded_rank"} <= names
