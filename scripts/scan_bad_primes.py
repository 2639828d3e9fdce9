#!/usr/bin/env python3
"""Tabulate bad primes and the collision-set intervals for a range of levels."""
import argparse

from virmod import weights


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell-max", type=int, default=12)
    args = ap.parse_args()
    if args.ell_max < 2:
        ap.error("--ell-max must be >= 2")

    for ell in range(2, args.ell_max + 1):
        bound = 2 * ell * ell + ell - 3
        bad = weights.bad_primes(ell)
        listed = set(bad)
        good = [p for p in weights.primes_upto(bound) if p not in listed]
        print(f"ell={ell:<3} bound={bound:<5} bad={bad}")
        print(f"        good below bound: {good}")
        print(f"        collision intervals: {weights.b_set_intervals(ell)}")


if __name__ == "__main__":
    main()
