#!/usr/bin/env python3
"""Run every benchmark workload and the Tier-1 tests on this checkout, and
write the figures as one JSON record.

    python3 scripts/bench.py --out BENCH_<n>.json --key after

The checkout measured is the one this script sits in.  Each workload of
`BENCHMARK.json` runs once through `bench/run.py --trace 0`, at seed `SEED`
and the run length `BENCHMARK.json` gives; the record keeps its last output
line (the result object), and from its metadata the commit, the Python
version and the line count of `src/`.  Beside that total, `src_files` holds
the line count of each `src/virmod/*.py`, as `wc -l` gives it, so a change
shows which module grew or shrank.  The Tier-1 tests run once, and the
record keeps their wall time and summary line.  The record goes under KEY
in the output file, and keys already there are kept, so one file can hold
the records of a parent commit and of a change.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_workload(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(the result object, the metadata) of one `bench/run.py` run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"error: bench/run.py --workload {name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), meta


def src_files() -> dict[str, int]:
    """The `wc -l` line count of each module of `src/virmod`, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "virmod").glob("*.py"))}


def run_tier1() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "summary": summary}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--key", required=True, help="the name of this checkout's record in the file")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    workloads, meta = {}, {}
    for w in spec["workloads"]:
        result, meta = run_workload(w["name"], SEED, seconds)
        workloads[w["name"]] = result
    record = {
        "commit": meta["commit"],
        "python": meta["python"],
        "src_lines": meta["src_lines"],
        "src_files": src_files(),
        "seed": SEED,
        "seconds": seconds,
        "tier1": run_tier1(),
        "workloads": workloads,
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc[args.key] = record
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
