#!/usr/bin/env python3
"""Sampling diagnostics for the Haar generator.

Checks two things over seeded ensembles:

1. The first-entry moment E|V11|^2 = 1/n, for n = 2..5.

2. The phase-correction trap: QR of a complex Ginibre matrix is only Haar
   after each column of Q is rescaled by the phase of the matching diagonal
   entry of R.  Without the correction the eigenvalue angles of Q cluster
   (our Householder convention pushes them towards the negative real axis);
   with it they are uniform.  The mean resultant length
   R = |mean_k exp(i angle_k)| makes the difference visible: uniform angles
   give R near zero, clustered angles give R near one.

Usage: python3 scripts/haar_sampling_study.py [--samples N] [--seed S]
"""

import argparse
import math

import numpy as np

from jarlskog import derive_seed, draw_trials, householder_qr


def haar_stack(n, seed, samples):
    """samples Haar unitaries, draw t from the stream seeded with
    derive_seed(seed, t)."""
    return draw_trials(n, derive_seed(seed, np.arange(samples)))[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=777)
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be >= 1")

    print("first-entry moment E|V11|^2 (target 1/n):")
    for n in (2, 3, 4, 5):
        total = 0.0
        for v in haar_stack(n, args.seed + n, args.samples):
            total += abs(v[0, 0]) ** 2
        mean = total / args.samples
        se = math.sqrt(max(mean * (1.0 - mean), 1e-12) / args.samples)
        print(f"  n={n}:  {mean:.4f}  vs {1.0 / n:.4f}  (+/- {se:.4f})")

    print()
    print("eigenvalue-angle clustering (mean resultant length):")
    v = haar_stack(4, args.seed, args.samples)
    for corrected in (True, False):
        acc = 0j
        count = 0
        # the uncorrected Q of each draw's Ginibre matrix G = Q R is that of
        # V: V = Q D with D the phases of diag(R), so G = V (D^-1 R), and a
        # right factor that is upper triangular with a positive diagonal
        # leaves the Householder Q unchanged (up to rounding)
        for q in v if corrected else householder_qr(v)[0]:
            for lam in np.linalg.eigvals(q):
                acc += lam / abs(lam)
                count += 1
        resultant = abs(acc) / count
        label = "with phase correction   " if corrected else "without phase correction"
        print(f"  {label}: R = {resultant:.4f}"
              + ("  (should be near 0)" if corrected else "  (clustered)"))


if __name__ == "__main__":
    main()
