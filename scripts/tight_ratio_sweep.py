#!/usr/bin/env python3
"""Gain ratios of the greedy solvers on the adversarial tight families.

For each budget k the instance is a bundle of k+2 parallel edges (weight
1+eps for the single-batch run, 1.5+eps for the two-batch run) next to a
disjoint unit-weight prism with 3k-3 edges. The greedy solvers keep
harvesting the parallel bundle while the optimum collects the entire
prism, so the optimum-to-greedy ratio approaches 3 resp. 2 from below as
k grows and eps shrinks. The optimum is brute-forced where that is
cheap and otherwise known in closed form (3k-3).
"""

import argparse
from math import comb

from flowmon.generators import gen_greedy1_tight, gen_greedy2_tight
from flowmon.solvers import SolverConfig, exact, sigma_greedy
from flowmon.weights import Weight

EXACT_CEILING = 300_000  # brute-force only while C(m, k) stays this small


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=10)
    parser.add_argument("--epsilon", default="0.01")
    args = parser.parse_args()
    eps = Weight.parse(args.epsilon)

    print(f"epsilon = {eps}")
    print(f"{'k':>3} {'greedy1':>10} {'opt':>6} {'ratio1':>8} {'greedy2':>10} {'ratio2':>8}")
    for k in range(4, args.kmax + 1):
        g1 = gen_greedy1_tight(k, eps)
        g2 = gen_greedy2_tight(k, eps)
        gain1 = sigma_greedy(g1, SolverConfig(k=k, sigma=1)).gain
        gain2 = sigma_greedy(g2, SolverConfig(k=k, sigma=2)).gain
        m = len(g1.weights_micros)
        if comb(m, k) <= EXACT_CEILING:
            opt = exact(g1, k).gain
            source = ""
        else:
            opt = Weight.from_units(3 * k - 3)
            source = "*"
        r1 = opt.micros / gain1.micros
        r2 = opt.micros / gain2.micros
        print(f"{k:>3} {str(gain1):>10} {str(opt):>5}{source or ' '} {r1:>8.4f} {str(gain2):>10} {r2:>8.4f}")
    print("(* optimum from the closed form 3k-3 where enumeration is too large)")


if __name__ == "__main__":
    main()
