"""Sweep the decomposition over random matrices and report worst residuals.

Usage: python scripts/roundtrip_sweep.py [--trials 200] [--dims 1,2,3,4,6]
"""

import argparse
import time

import numpy as np

from sympeq import ClusteringAmbiguous, DegenerateSpectrum, decompose, verify_decomposition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dims", default="1,2,3,4,6")
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]

    start = time.perf_counter()
    for n in dims:
        ok = rejected = 0
        worst = {"recon": 0.0, "s1": 0.0, "s2": 0.0, "match": 0.0}
        for trial in range(args.trials):
            seed = args.seed0 + 10_000 * n + trial
            x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
            try:
                d = decompose(x)
            except (DegenerateSpectrum, ClusteringAmbiguous) as exc:
                rejected += 1
                print(f"  n={n} trial={trial}: rejected ({type(exc).__name__})")
                continue
            rep = verify_decomposition(x, d)
            assert rep.verdict, f"silent contract violation at n={n}, trial={trial}"
            ok += 1
            worst["recon"] = max(worst["recon"], rep.recon)
            worst["s1"] = max(worst["s1"], rep.s1)
            worst["s2"] = max(worst["s2"], rep.s2)
            worst["match"] = max(worst["match"], rep.spectrum_match)
        print(
            f"n={n}: {ok} ok, {rejected} rejected | worst recon {worst['recon']:.2e}, "
            f"s1 {worst['s1']:.2e}, s2 {worst['s2']:.2e}, spectrum {worst['match']:.2e}"
        )
    print(f"total time {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
