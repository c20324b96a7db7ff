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

from jarlskog import SeededRng, ginibre, haar_unitary, householder_qr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=777)
    args = parser.parse_args()

    print("first-entry moment E|V11|^2 (target 1/n):")
    for n in (2, 3, 4, 5):
        rng = SeededRng(args.seed + n)
        total = 0.0
        for _ in range(args.samples):
            total += abs(haar_unitary(n, rng).matrix[0, 0]) ** 2
        mean = total / args.samples
        se = math.sqrt(max(mean * (1.0 - mean), 1e-12) / args.samples)
        print(f"  n={n}:  {mean:.4f}  vs {1.0 / n:.4f}  (+/- {se:.4f})")

    print()
    print("eigenvalue-angle clustering (mean resultant length):")
    n = 4
    for corrected in (True, False):
        rng = SeededRng(args.seed)
        acc = 0j
        count = 0
        for _ in range(args.samples):
            # both branches draw one Ginibre matrix from the stream
            q = haar_unitary(n, rng).matrix if corrected else householder_qr(ginibre(n, rng))[0]
            for lam in np.linalg.eigvals(q):
                acc += lam / abs(lam)
                count += 1
        resultant = abs(acc) / count
        label = "with phase correction   " if corrected else "without phase correction"
        print(f"  {label}: R = {resultant:.4f}"
              + ("  (should be near 0)" if corrected else "  (clustered)"))


if __name__ == "__main__":
    main()
