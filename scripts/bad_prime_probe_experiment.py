#!/usr/bin/env python3
"""Run the rank-comparison probe at a bad prime and print the level-by-level
ranks.  The interesting case is ell=2, p=7, where the weights 1/2 and 1/16
collide; the outcome is recorded as an experiment, not asserted.
"""
import argparse

from virmod import weights
from virmod.cli import LEVEL_MAX, _int_in, _prime
from virmod.exact import is_prime
from virmod.virasoro import DegenerateParams, irreducibility_probe


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", type=int, default=2)
    ap.add_argument("--prime", type=_prime, default=7)
    ap.add_argument("--max-level", type=_int_in(high=LEVEL_MAX), default=8)
    args = ap.parse_args()
    if args.ell < 2:
        ap.error("--ell must be >= 2")
    if not is_prime(args.prime):
        ap.error(f"--prime: {args.prime} is not prime")
    if args.max_level < 0:
        ap.error("--max-level must be >= 0")

    for lab in weights.canonical_labels(args.ell):
        h = weights.highest_weight(args.ell, lab.m, lab.n)
        try:
            v = irreducibility_probe(args.ell, lab, args.prime, args.max_level)
        except DegenerateParams as e:
            print(f"label ({lab.m},{lab.n}) h={h}: degenerate ({e})")
            continue
        print(f"label ({lab.m},{lab.n}) h={h}: {v.verdict}"
              + (f" at level {v.drop_level}" if v.drop_level is not None else ""))
        for lev, rq, rp in v.levels:
            marker = "" if rq == rp else "   <-- drop"
            print(f"  level {lev}: rank QQ = {rq}, rank mod {args.prime} = {rp}{marker}")


if __name__ == "__main__":
    main()
