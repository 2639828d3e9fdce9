#!/usr/bin/env python3
"""The virmod benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {paper,prime-sweep,gram-deep} --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from `src/`; nothing
is installed.  Load comes from one closed loop with no threads: each pass
runs in its own fresh interpreter, one after another, because the Gram
engine's process-wide caches (`virasoro._prepend`, `virasoro.partitions`)
start cold for every CLI user and a warm loop would hide that cost.  Every
pass of a run executes the same seeded items.  Passes start while a typical
pass still ends within `--seconds`.

Every item's output is checked by an oracle in this process, outside the
timed region.  With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate and it
carries the per-layer metrics, `trace.overhead_s` being the difference of
their median wall times.  Spans of the traced passes go to
`bench/_work/trace-<workload>-<seed>.json`; a record of every run, with its
metadata, to `bench/_work/run-<workload>-<seed>-trace<t>.json`.

End-to-end times are reported at nominal host speed: each item's time is
scaled by REF_NOMINAL_S over the time of the worker's reference kernel run
beside it (`worker.reference`).  The raw times are printed next to them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

import spans  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
}
TAIL_PERCENTILE = 70
REF_NOMINAL_S = 0.003  # worker.reference() at nominal host speed; fixed, so that runs compare
SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s; a pass is cut off at this


def at_nominal(seconds: float, ref_s: float) -> float:
    """A time rescaled to the host speed at which the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def raw(seconds: float, ref_s: float) -> float:
    return seconds


def spawn(spec: dict, deadline: float) -> tuple[float, dict | None, str]:
    """Run one worker; return (spawn time, its result or None, error text)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return t_spawn, None, "pass timed out"
    if proc.returncode != 0:
        return t_spawn, None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1]), ""


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def self_check(workload: str) -> list[str]:
    """Check the oracles themselves against data published with the program."""
    sys.path.insert(0, str(SRC))
    from virmod import cli, weights

    problems = []
    if workload == "prime-sweep":
        for ell, expected in cli.EXPECTED_BAD_PRIMES.items():
            if workloads.bad_primes_oracle(ell) != expected:
                problems.append(f"bad-prime oracle disagrees with EXPECTED_BAD_PRIMES at ell={ell}")
    if workload == "gram-deep":
        for ell in sorted({ell for ell, _, _ in workloads.PROBE_LABELS}):
            c = weights.central_charge(ell)
            for lab in weights.canonical_labels(ell):
                h = weights.highest_weight(ell, lab.m, lab.n)
                d = workloads.d_min(ell, lab.m, lab.n)
                zero_at = [r * s for r, s in workloads.kac_pairs(d) if workloads.kac_phi(r, s, c, h) == 0]
                if min(zero_at, default=None) != d:
                    problems.append(f"Kac oracle misses h_({lab.m},{lab.n}) at ell={ell}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "virmod" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'virmod'} is missing", file=sys.stderr)
        return 2
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    problems = self_check(args.workload)

    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, res, err = spawn({"setup_only": True}, deadline)
        if res is None:
            print(f"error: set-up probe failed: {err}", file=sys.stderr)
            return 1
        setups.append((res["ready"] - t_spawn, res["ref_s"]))

    inputs = workloads.run_items(args.workload, args.seed)
    report = str(WORK / f"report-{os.getpid()}.json")
    oracle_cache: dict = {}
    untraced, traced = [], []
    attempted = failed = 0
    spent: list[float] = []  # spawn to result, per pass
    began_passes = time.monotonic()
    # A pass starts only if a typical pass ends within --seconds.  In a
    # traced run, passes alternate untraced/traced.
    while len(spent) < (2 if args.trace else 1) or (
        time.monotonic() - began_passes + median(spent) <= args.seconds and time.monotonic() < deadline - 30
    ):
        trace_this = bool(args.trace) and len(spent) % 2 == 1
        spec = {"items": inputs, "trace": trace_this, "report": report if args.workload == "paper" else None}
        t_spawn, res, err = spawn(spec, deadline)
        spent.append(time.monotonic() - t_spawn)
        attempted += len(inputs)
        if res is None:
            failed += len(inputs)
            problems.append(err)
            continue
        setups.append((res["ready"] - t_spawn, res["ref_s"]))
        for item, got in zip(inputs, res["items"]):
            why = got["error"] or workloads.check_item(item, got["out"], oracle_cache)
            if why:
                failed += 1
                problems.append(f"{item}: {why}")
        (traced if trace_this else untraced).append(res)

    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    def wall(res, scale) -> float:
        return sum(scale(it["s"], it["ref_s"]) for it in res["items"])

    def figures(scale) -> dict:
        items_ms = [scale(it["s"], it["ref_s"]) * 1000 for r in untraced for it in r["items"]]
        return {
            "wall_s": median(wall(r, scale) for r in untraced),
            "setup_s": median(scale(t, ref) for t, ref in setups),
            "peak_rss_mb": median(r["rss_mb"] for r in untraced),
            "item_p50_ms": spans.percentile(items_ms, 50),
            "item_tail_ms": spans.percentile(items_ms, TAIL_PERCENTILE),
        }

    e2e, e2e_raw = figures(at_nominal), figures(raw)
    items = [at_nominal(it["s"], it["ref_s"]) * 1000 for r in untraced for it in r["items"]]
    refs = [it["ref_s"] for r in untraced for it in r["items"]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "src_lines": src_lines(),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "items": len(items),
        "item_tail_percentile": TAIL_PERCENTILE,
        "items_beyond_tail": sum(1 for x in items if x > e2e["item_tail_ms"]),
        "setup_samples": len(setups),
        "pass_wall_raw_s": [wall(r, raw) for r in untraced],
        "reference_median_s": median(refs),
        "host_slowdown": median(refs) / REF_NOMINAL_S,
        "run_s": time.monotonic() - began,
    }
    if args.trace:
        metrics = spans.combine(traced)
        metrics["trace.overhead_s"] = median(wall(r, at_nominal) for r in traced) - e2e["wall_s"]
        units = spans.PER_LAYER_UNITS
        stages = [spans.stage_table(r["trace"]) for r in traced]
        stage_median = {k: median(t[k] for t in stages) for k in stages[0]}
        with open(WORK / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "stage_table_s": stage_median, "passes": [r["trace"] for r in traced]}, f)
        for stage, secs in stage_median.items():
            print(f"# stage  {stage:<28} {secs:9.4f} s")
    else:
        metrics, units = e2e, E2E_UNITS
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        also = f"  (raw {e2e_raw[name]} {units[name]})" if name in e2e_raw and not args.trace else ""
        print(f"# {name} = {value} {units[name]}{also}")
    print(f"# fail_ratio = {failed / attempted} ratio ({failed} of {attempted} items)")
    print("# meta " + json.dumps(meta))
    for p in problems[:20]:
        print(f"# problem: {p}")
    with open(WORK / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        record = {
            "meta": meta,
            "metrics": metrics,
            "end_to_end": e2e,
            "end_to_end_raw": e2e_raw,
            "problems": problems,
            "items_s": [[item, it["s"]] for r in untraced for item, it in zip(inputs, r["items"])],
        }
        json.dump(record, f)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
