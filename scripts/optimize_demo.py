#!/usr/bin/env python3
"""Compare the optimal finite-horizon policy against greedy and cutoff
baselines over a grid of success probabilities.

    python scripts/optimize_demo.py --horizon 20 --lam 0.9 [--ps 0.1 0.3 0.5]
"""

import argparse
import math
import sys

from qlink.cutoff import cutoff_policy
from qlink.engine import LinkParams
from qlink.optimize import (
    backward_recursion_reduced,
    evaluate_state_policy,
    forward_greedy,
)
from qlink.quantum import FidelityCurve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=20)
    parser.add_argument("--lam", type=float, default=0.9,
                        help="depolarizing memory parameter")
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--ps", type=float, nargs="*",
                        default=[0.1, 0.3, 0.5, 0.7, 0.9])
    args = parser.parse_args()

    T = args.horizon
    curve = FidelityCurve.depolarizing(1.0, args.lam, args.dim)
    cutoffs = [0, 1, 2, 5, 10, math.inf]
    header = ["p", "optimal", "greedy"] + [f"cutoff({c})" for c in cutoffs]
    print(",".join(str(h) for h in header))
    for p in args.ps:
        params = LinkParams.symbolic(p, curve)
        optimal = backward_recursion_reduced(params, T).optimal_value
        greedy = evaluate_state_policy(params, forward_greedy(params), T + 1)
        cells = [f"{p:g}", f"{optimal:.6f}", f"{greedy.e_ftilde:.6f}"]
        for c in cutoffs:
            value = evaluate_state_policy(params, cutoff_policy(c), T + 1)
            cells.append(f"{value.e_ftilde:.6f}")
        print(",".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
