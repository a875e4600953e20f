#!/usr/bin/env python3
"""Cross-check Monte Carlo transition estimates against banded powers.

Draws random (walk, n, i, j) tuples, simulates each with a fixed seed
and prints the deviation from the exact power entry in standard-error
units.  Each walk draws its lattice and its form: a constant p, a list
of 1-6 prefix values before a constant tail (starting at a negative
state on the line), or a cycle of length 2-4; on the line i and j may be
negative.  Exits nonzero if more than one tuple in a hundred lands outside
four standard errors, which is this package's agreement bar.
"""

import argparse
import random
import sys

from walkdyn.operators import Constant, ListWithTail, Periodic, make_walk, pseq_text
from walkdyn.seqspace import Lattice
from walkdyn.walk_oracle import WalkConfig, estimate_transition


def draw_walk(rng):
    """A random lattice and probability sequence with entries in (0.2, 0.9)."""

    def p():
        return round(rng.uniform(0.2, 0.9), 3)

    lattice = rng.choice(list(Lattice))
    form = rng.randrange(3)
    if form == 0:
        return lattice, Constant(p())
    if form == 1:
        values = tuple(p() for _ in range(rng.randint(1, 6)))
        start = rng.randint(-4, 0) if lattice is Lattice.LINE else 0
        return lattice, ListWithTail(values, p(), start=start)
    return lattice, Periodic(tuple(p() for _ in range(rng.randint(2, 4))))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=15)
    ap.add_argument("--quiet", action="store_true", help="print offenders only")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    worst = 0.0
    outside = 0
    for trial in range(args.trials):
        lattice, pseq = draw_walk(rng)
        n = rng.randint(1, args.n_max)
        if lattice is Lattice.HALF_LINE:
            i = rng.randint(0, 4)
            j = rng.randint(max(0, i - n), i + n)
        else:
            # the line walk keeps parity: j is i + n minus an even number
            i = rng.randint(-4, 4)
            j = i - n + 2 * rng.randint(0, n)
        exact = make_walk(lattice, pseq).power_entry(n, i, j)
        cfg = WalkConfig(
            lattice=lattice,
            pseq=pseq,
            seed=args.seed * 100_003 + trial,
            samples=args.samples,
        )
        estimate, stderr = estimate_transition(cfg, n, i, j)
        dev = abs(estimate - exact) / stderr if stderr > 0 else 0.0
        worst = max(worst, dev)
        flag = ""
        if dev > 4.0:
            outside += 1
            flag = "  <-- outside 4 se"
        if flag or not args.quiet:
            print(
                f"{lattice.value} {pseq_text(pseq)} n={n:2d} {i}->{j:2d}  exact={exact:.6f} "
                f"mc={estimate:.6f} se={stderr:.2e} dev={dev:5.2f}{flag}"
            )

    print(f"\n{args.trials} tuples, worst deviation {worst:.2f} se, {outside} outside 4 se")
    allowance = max(1, args.trials // 100)
    if outside > allowance:
        print(f"FAIL: more than {allowance} outside the agreement bar")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
