"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin, runs its items through the public virmod API,
and prints one JSON line: the monotonic time at which `import virmod.cli`
completed, each item's time and output, the reference-kernel time around
and during each item, the peak RSS, and, for a traced pass, the spans and
counters.
Outputs are checked by the parent, outside the timed region and outside
this process.

`virmod.cli` is imported before anything else, so the parent's set-up time
(spawn to import done) is interpreter start plus that import.
"""
import time

import virmod.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from virmod import virasoro, weights  # noqa: E402


SAMPLE_EVERY_S = 0.2
BRACKET = 4  # kernel runs just before and just after each item


def reference() -> float:
    """Seconds for a fixed, few-millisecond piece of Fraction and dict work.

    Host speed on a shared VM swings by tens of percent from minute to
    minute, and within a long item.  This kernel does the same kind of work
    as the program (big rationals, small dicts) but none of its code, so an
    item's time over the kernel's time around and during it measures the
    program, not the host.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 500):
        y = Fraction(i % 97 + 1, i + 7) * x + Fraction(1, i)
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + y.numerator % 11
        x = Fraction(y.numerator % 1000003, y.denominator % 999983 + 1)
    return time.perf_counter() - t0


class HostSpeed:
    """Times the reference kernel around an item and, on a timer signal, during it."""

    def __init__(self):
        self.times: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = reference()
        self.times.append(t)
        self.stolen += t

    def bracket(self) -> float:
        """Mean kernel time over BRACKET runs."""
        return sum(reference() for _ in range(BRACKET)) / BRACKET

    def run(self, fn):
        """(result, error text, fn's own seconds, mean kernel seconds around and during it)."""
        self.times = [reference() for _ in range(BRACKET)]
        self.stolen = 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            out, error = fn(), None
        except Exception as e:  # an item that raises is a failed item, not a failed pass
            out, error = None, f"{type(e).__name__}: {e}"
        signal.setitimer(signal.ITIMER_REAL, 0)
        own = time.perf_counter() - t0 - self.stolen
        self.times += [reference() for _ in range(BRACKET)]
        return out, error, own, sum(self.times) / len(self.times)


def _paper(item, spec):
    with contextlib.redirect_stdout(io.StringIO()):
        return {"exit": virmod.cli.run(["reproduce-paper", "--json", spec["report"]])}


def _bad_primes(item, spec):
    return weights.bad_primes(item["ell"])


def _prop_h(item, spec):
    return {"passed": weights.verify_prop_h(item["ell"]).passed}


def _probe(item, spec):
    label = weights.MinimalLabel(item["ell"], item["m"], item["n"])
    v = virasoro.irreducibility_probe(item["ell"], label, item["p"], item["level"])
    return {"levels": [list(t) for t in v.levels], "verdict": v.verdict}


def _generic(item, spec):
    params = virasoro.VermaParams.rational(Fraction(item["c"]), Fraction(item["h"]))
    return {"levels": [list(t) for t in virasoro.graded_rank(params, item["level"]).levels]}


RUNNERS = {"paper": _paper, "bad_primes": _bad_primes, "prop_h": _prop_h, "probe": _probe, "generic": _generic}


def main() -> None:
    spec = json.loads(sys.stdin.read())
    speed = HostSpeed()
    if spec.get("setup_only"):
        print(json.dumps({"ready": READY, "ref_s": speed.bracket()}))
        return
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    first_ref = speed.bracket()
    items = []
    for item in spec["items"]:
        out, error, own, ref = speed.run(lambda: RUNNERS[item["kind"]](item, spec))
        items.append({"s": own, "ref_s": ref, "out": out, "error": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_bytes = 0
    if spec.get("report") and os.path.exists(spec["report"]):
        with open(spec["report"], "rb") as f:
            data = f.read()
        os.remove(spec["report"])
        report_bytes = len(data)
        for it in items:
            if it["out"] is not None:
                it["out"]["sha256"] = hashlib.sha256(data).hexdigest()
    result = {"ready": READY, "ref_s": first_ref, "rss_mb": rss_mb, "items": items, "report_bytes": report_bytes}
    if tracer is not None:
        result["trace"] = spans.pass_record(tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
