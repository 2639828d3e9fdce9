#!/usr/bin/env python3
"""Smoke check of the benchmark: every named metric appears, with its unit.

    python3 bench/smoke.py

Runs each workload for one second on seed 0, untraced and traced, and
asserts that the last stdout line is the result object, that its outputs
were correct, and that its metrics are exactly the ones BENCHMARK.json
names, each with the unit given there.  Then copies BENCHMARK.json and
the benchmark's files, without the program, into bench/_work/bare and
asserts that the benchmark refuses to run there.  Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, w["name"], trace)
            if proc.returncode != 0:
                raise SystemExit(f"{w['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                raise SystemExit(f"{w['name']} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise SystemExit(f"{w['name']} trace={trace}: outputs not correct\n{proc.stdout}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                missing = set(wanted[trace].items()) ^ set(got.items())
                raise SystemExit(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json: {sorted(missing)}")
            print(f"ok  {w['name']:<12} trace={trace}  {len(got)} metrics")

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("the benchmark ran without the program")
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
