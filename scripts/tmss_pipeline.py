"""End-to-end demo: condense a two-mode squeezed state and check the
pure-state relation between local frequencies and correlation invariants.

Usage: python scripts/tmss_pipeline.py [--r 0.5]
"""

import argparse
import math

import numpy as np

from sympeq import condense_correlations, schmidt_relation_check, state_validity, two_mode_squeezed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=0.5)
    args = parser.parse_args()
    r = args.r

    g = two_mode_squeezed(r)
    print(f"two-mode squeezed state, r = {r}")
    print("correlation block:\n", g.x)
    print("admissible:", state_validity(g).valid)

    res = condense_correlations(g)
    print("\ncondensed correlation block:\n", np.round(res.g_out.x, 12))
    lam = res.blocks.blocks[0].re
    print(f"invariant lambda = {lam:.12g}  (analytic -sinh(2r)^2 = {-math.sinh(2 * r) ** 2:.12g})")

    rep = schmidt_relation_check(g)
    print(
        f"local frequency nu = {rep.nu_local[0]:.12g}  "
        f"(analytic cosh(2r) = {math.cosh(2 * r):.12g})"
    )
    print(f"nu = sqrt(1 - lambda) relative error: {rep.max_relative_error:.3e}")


if __name__ == "__main__":
    main()
