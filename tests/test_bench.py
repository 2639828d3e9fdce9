"""The benchmark worker runs against the program as it stands.

`bench/` reads program internals (`VermaParams._memo`, `GramReport.levels`,
the `cache_info` of the engine's caches); a traced pass in a subprocess
catches a change that breaks any of them before a benchmark run does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
# sha256 of tests/data/reproduce_paper.json, the `reproduce-paper --json` report
PAPER_SHA256 = "cb83aeb050f978d5eacad4bd5dbe71387cf28b76eeb6f3d77bad1d367017c17c"


def test_traced_worker_pass(tmp_path):
    spec = {
        "trace": 1,
        "report": str(tmp_path / "report.json"),
        "items": [{"kind": "paper"}, {"kind": "probe", "ell": 2, "m": 2, "n": 2, "p": 11, "level": 4}],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [item["error"] for item in result["items"]] == [None, None]
    assert [item["out"]["sha256"] for item in result["items"]] == [PAPER_SHA256] * 2
    assert result["items"][1]["out"]["verdict"] == "consistent"
    assert "trace" in result
