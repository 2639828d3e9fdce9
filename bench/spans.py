"""Tracing for the benchmark's traced passes, and the per-layer metrics.

`install` wraps the public virmod functions the per-layer metrics name and
rebinds every module-level name that refers to them, so calls between
layers go through the wrappers too.  Each wrapped call records a span
[name, start, end, parent, leaf_s, info]; spans stay in memory and the pass
returns them when it ends.  `exact.reduce_mod_p` runs millions of times in
a sweep, so it is a leaf: it keeps only a call count and total time, which
it also charges to the enclosing span, so self times stay right.

Nothing here changes what the program computes.  The wrappers live only in
the benchmark; the program has no tracing of its own.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter

CLASSIFY_TAIL_PERCENTILE = 90

PER_LAYER_UNITS = {
    "weights.classify_prime.calls": "count",
    "weights.classify_prime.self_s": "s",
    "weights.classify_prime.p50_ms": "ms",
    "weights.classify_prime.tail_ms": "ms",
    "weights.verify_g_identity.s": "s",
    "weights.g_set.s": "s",
    "weights.verify_prop_x.s": "s",
    "weights.b_set_bruteforce.s": "s",
    "weights.bad_primes.s": "s",
    "weights.verify_prop_h.s": "s",
    "exact.reduce_mod_p.calls": "count",
    "exact.reduce_mod_p.s": "s",
    "exact.rank.qq.calls": "count",
    "exact.rank.qq.s": "s",
    "exact.rank.qq.max_dim": "count",
    "exact.rank.qq.ops_computed": "count",
    "exact.rank.fp.calls": "count",
    "exact.rank.fp.s": "s",
    "exact.determinant.calls": "count",
    "exact.determinant.s": "s",
    "virasoro.gram_matrix.qq.calls": "count",
    "virasoro.gram_matrix.qq.s": "s",
    "virasoro.gram_matrix.fp.calls": "count",
    "virasoro.gram_matrix.fp.s": "s",
    "virasoro.gram_matrix.entries": "count",
    "virasoro.gram_matrix.top_level_s": "s",
    "virasoro.gram_unique_ratio": "ratio",
    "virasoro.irreducibility_probe.s": "s",
    "virasoro.graded_rank.s": "s",
    "virasoro.kac_vanishing_check.s": "s",
    "virasoro.memo_entries": "count",
    "virasoro.prepend_cache.hits": "count",
    "virasoro.prepend_cache.misses": "count",
    "virasoro.partitions_cache.misses": "count",
    "coset.gko_verify.s": "s",
    "coset.table1_check.s": "s",
    "cli.reproduce.s": "s",
    "cli.run.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Rows of the reproduce-paper stage table: direct children of cli.reproduce.
STAGES = (
    ("g-identity", ("weights.verify_g_identity", "weights.g_set")),
    ("probes", ("virasoro.irreducibility_probe",)),
    ("prop-x and extremes", ("weights.verify_prop_x", "weights.b_set_bruteforce")),
    ("Kac vanishing", ("virasoro.kac_vanishing_check",)),
    ("neighbour-prime", ("weights.b_set_intervals", "weights.classify_prime")),
    ("gko", ("coset.gko_verify",)),
    ("bad-prime lists", ("weights.bad_primes",)),
    ("level-2 Gram", ("virasoro.gram_matrix.qq",)),
    ("table1", ("coset.table1_check",)),
)


def _field(obj) -> str:
    return "fp" if hasattr(obj, "p") else "qq"


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}
        self.gram_keys: set = set()
        self.memo_slot: dict[int, int] = {}
        self.memo_sizes: list[int] = []

    def span(self, name, fn, post=None):
        """Wrap fn; `name` is a string or a function of the call's arguments."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(*args), 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(rec, args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        agg = self.leaves.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    # post hooks ------------------------------------------------------------

    def _rank_post(self, rec, args, result):
        rec[5] = [args[0].rows, args[0].cols]

    def _gram_post(self, rec, args, result):
        params, level = args
        rec[5] = [level, result.rows * result.cols]
        self.gram_keys.add((repr(params.field_), params.c, params.h, level))
        slot = self.memo_slot.get(id(params))
        if slot is not None:
            self.memo_sizes[slot] = len(params._memo)

    def _register_params(self, params):
        # Memo sizes are read when a Gram build on these params returns; a
        # recycled id is re-registered by the next constructor call.
        self.memo_slot[id(params)] = len(self.memo_sizes)
        self.memo_sizes.append(0)
        return params


def install(tracer: Tracer) -> None:
    """Wrap the traced virmod functions in every module that names them."""
    from virmod import cli, coset, exact, virasoro, weights

    modules = (exact, weights, virasoro, coset, cli)

    def rebind(orig, wrapper):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    rebind(exact.reduce_mod_p, tracer.leaf("exact.reduce_mod_p", exact.reduce_mod_p))
    rebind(exact.rank, tracer.span(lambda m: f"exact.rank.{_field(m.field)}", exact.rank, tracer._rank_post))
    rebind(exact.determinant, tracer.span("exact.determinant", exact.determinant))
    for name in (
        "classify_prime", "bad_primes", "verify_prop_h", "verify_prop_x", "verify_g_identity",
        "g_set", "b_set_bruteforce", "b_set_intervals",
    ):
        rebind(getattr(weights, name), tracer.span(f"weights.{name}", getattr(weights, name)))
    rebind(
        virasoro.gram_matrix,
        tracer.span(lambda p, n: f"virasoro.gram_matrix.{_field(p.field_)}", virasoro.gram_matrix, tracer._gram_post),
    )
    for name in ("graded_rank", "irreducibility_probe", "kac_vanishing_check"):
        rebind(getattr(virasoro, name), tracer.span(f"virasoro.{name}", getattr(virasoro, name)))
    for name in ("rational", "mod_p"):
        make = getattr(virasoro.VermaParams, name).__func__
        setattr(
            virasoro.VermaParams,
            name,
            classmethod(lambda cls, *a, _make=make: tracer._register_params(_make(cls, *a))),
        )
    for name in ("gko_verify", "table1_check"):
        rebind(getattr(coset, name), tracer.span(f"coset.{name}", getattr(coset, name)))
    for name in ("reproduce", "run"):
        rebind(getattr(cli, name), tracer.span(f"cli.{name}", getattr(cli, name)))


def pass_record(tracer: Tracer) -> dict:
    """What a traced pass sends back: its spans and the counters read at its end."""
    from virmod import virasoro

    prepend = virasoro._prepend.cache_info()
    parts = virasoro.partitions.cache_info()
    return {
        "spans": tracer.spans,
        "leaves": tracer.leaves,
        "prepend_cache": [prepend.hits, prepend.misses],
        "partitions_cache": [parts.hits, parts.misses],
        "memo_entries": sum(tracer.memo_sizes),
        "gram_unique": len(tracer.gram_keys),
    }


# ------------------------------------------------------------ derivation


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 for no values)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans) -> list[float]:
    """Each span's duration minus its child spans and the leaf calls it made."""
    own = [s[2] - s[1] - s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _bareiss_updates(rows: int, cols: int) -> int:
    """Inner updates of fraction-free elimination on a full-rank rows x cols matrix."""
    return sum((rows - k - 1) * (cols - k - 1) for k in range(min(rows, cols)))


def layer_metrics(rec: dict, report_bytes: int) -> dict:
    """Per-layer values of one traced pass (all but the pooled percentiles)."""
    spans = rec["spans"]
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for s, o in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + s[2] - s[1]
        calls[s[0]] = calls.get(s[0], 0) + 1
        selfs[s[0]] = selfs.get(s[0], 0.0) + o
    qq_dims = [s[5] for s in spans if s[0] == "exact.rank.qq"]
    grams = [s for s in spans if s[0].startswith("virasoro.gram_matrix.")]
    top = max((s[5][0] for s in grams), default=None)
    leaf_calls, leaf_s = rec["leaves"].get("exact.reduce_mod_p", [0, 0.0])
    out = {
        "weights.classify_prime.calls": calls.get("weights.classify_prime", 0),
        "weights.classify_prime.self_s": selfs.get("weights.classify_prime", 0.0),
        "exact.reduce_mod_p.calls": leaf_calls,
        "exact.reduce_mod_p.s": leaf_s,
        "exact.rank.qq.calls": calls.get("exact.rank.qq", 0),
        "exact.rank.qq.max_dim": max((r for r, _ in qq_dims), default=0),
        "exact.rank.qq.ops_computed": sum(_bareiss_updates(r, c) for r, c in qq_dims),
        "exact.rank.fp.calls": calls.get("exact.rank.fp", 0),
        "exact.determinant.calls": calls.get("exact.determinant", 0),
        "virasoro.gram_matrix.qq.calls": calls.get("virasoro.gram_matrix.qq", 0),
        "virasoro.gram_matrix.fp.calls": calls.get("virasoro.gram_matrix.fp", 0),
        "virasoro.gram_matrix.entries": sum(s[5][1] for s in grams),
        "virasoro.gram_matrix.top_level_s": sum((s[2] - s[1] for s in grams if s[5][0] == top), 0.0),
        "virasoro.gram_unique_ratio": rec["gram_unique"] / len(grams) if grams else 0.0,
        "virasoro.memo_entries": rec["memo_entries"],
        "virasoro.prepend_cache.hits": rec["prepend_cache"][0],
        "virasoro.prepend_cache.misses": rec["prepend_cache"][1],
        "virasoro.partitions_cache.misses": rec["partitions_cache"][1],
        "cli.run.self_s": selfs.get("cli.run", 0.0),
        "cli.report_bytes": report_bytes,
    }
    for name in (
        "weights.verify_g_identity", "weights.g_set", "weights.verify_prop_x", "weights.b_set_bruteforce",
        "weights.bad_primes", "weights.verify_prop_h", "exact.rank.qq", "exact.rank.fp", "exact.determinant",
        "virasoro.gram_matrix.qq", "virasoro.gram_matrix.fp", "virasoro.irreducibility_probe",
        "virasoro.graded_rank", "virasoro.kac_vanishing_check", "coset.gko_verify", "coset.table1_check",
        "cli.reproduce",
    ):
        out[f"{name}.s"] = total.get(name, 0.0)
    return out


def classify_durations_ms(rec: dict) -> list[float]:
    return [(s[2] - s[1]) * 1000 for s in rec["spans"] if s[0] == "weights.classify_prime"]


def stage_table(rec: dict) -> dict[str, float]:
    """Seconds per reproduce-paper stage, from the children of cli.reproduce."""
    spans = rec["spans"]
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.reproduce"]
    if not roots:
        return {}
    root = roots[0]
    by_name: dict[str, float] = {}
    for s in spans:
        if s[3] == root:
            by_name[s[0]] = by_name.get(s[0], 0.0) + s[2] - s[1]
    table = {stage: sum(by_name.get(n, 0.0) for n in names) for stage, names in STAGES}
    table["other (reproduce self time)"] = spans[root][2] - spans[root][1] - sum(by_name.values())
    return table


def combine(traced: list[dict]) -> dict:
    """Median of each per-pass value, plus percentiles pooled over the passes."""
    per_pass = [layer_metrics(r["trace"], r["report_bytes"]) for r in traced]
    out = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    pooled = [d for r in traced for d in classify_durations_ms(r["trace"])]
    out["weights.classify_prime.p50_ms"] = percentile(pooled, 50)
    out["weights.classify_prime.tail_ms"] = percentile(pooled, CLASSIFY_TAIL_PERCENTILE)
    return out
