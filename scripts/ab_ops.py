#!/usr/bin/env python3
"""Time two source trees against each other in one process, op by op.

Copies the jarlskog package of each tree into a temporary directory under
its own name (jarlskog_parent, jarlskog_change) and imports both, so that
the two run in the same interpreter, on the same heap and under the same
host load.  First it checks that both give the same output for every op
of a round: the rendered verify reports and the stdout, stderr and exit
code of each CLI call.  It names each op whose outputs differ, times the
trees anyway (a change may move report bytes on purpose), and exits 1 at
the end if any op differed.

Then it times the ops of the benchmark's three workloads:

    verify-n4     run_suite(4, 4, s)
    verify-n3     run_suite(3, 8, s)
    problems-cli  det --method both and phases on the n = 3 and n = 4
                  fixtures in V and U form (tests/data), one quartet per op

for master seeds s = 0, 1, ... (--ops of them per workload, the same in
every round).  Within a round the two trees alternate op by op, the parent
first on even ops and the change first on odd ones.  Each round prints the
5th percentile of each side's op times per workload, and the end prints in
how many rounds the change was lower and the median change.

This is a sizing tool: two trees in one process share caches and allocator
state, which a separate run of each does not, and it reads a sub-percent
bias.  On a 2-vCPU Xeon VM with Python 3.11.7 and numpy 2.4.6, 7 rounds of
300 ops:
  - control, one tree against a copy of itself, in two runs: medians of
    -0.2% and +0.3% (verify-n4), -0.2% and +0.3% (verify-n3), -0.1% and
    -0.2% (problems-cli);
  - two different trees, on problems-cli, which ran none of the changed
    code: +0.2% to +0.7%, lower in as few as 0 of 7 rounds.
So a difference below about 1% is not shown by this script.  A claimed
gain is shown by perfbench/run.py, each tree in its own checkout.

Usage: python3 scripts/ab_ops.py PARENT_SRC CHANGE_SRC [--rounds R] [--ops N]

where each SRC is a directory holding the jarlskog package, such as the
src/ of a `git archive` of the parent commit and this tree's src/.
"""

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data")
#: the problem quartet: n = 3 and n = 4, in V form and in U/U_prime form
PROBLEMS = tuple(os.path.join(DATA, name) for name in (
    "problem_n3_seed501.json", "problem_n3_uu_seed601.json",
    "problem_n4_seed2024.json", "problem_n4_uu_seed602.json"))
SIDES = ("parent", "change")


def load(src, side, tmp):
    """The (verify, cli) modules of the tree at src, imported as the
    package jarlskog_<side> from a copy in tmp."""
    name = f"jarlskog_{side}"
    shutil.copytree(os.path.join(src, "jarlskog"), os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.verify"), importlib.import_module(f"{name}.cli"))


def workloads(verify, cli):
    """{name: op(seed)} of one tree.  A verify op returns its report, as
    perfbench's does, and a quartet the text of its eight calls."""

    def quartet(_seed):
        outputs = []
        for path in PROBLEMS:
            for argv in (["det", path, "--method", "both"], ["phases", path]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                outputs.append(f"{code}\n{out.getvalue()}{err.getvalue()}")
        return "".join(outputs)

    return {
        "verify-n4": lambda seed: verify.run_suite(4, 4, seed),
        "verify-n3": lambda seed: verify.run_suite(3, 8, seed),
        "problems-cli": quartet,
    }


def text(output):
    """The output of an op as text: a verify report rendered."""
    return output if isinstance(output, str) else output.render()


def p5(times):
    """5th percentile, as perfbench computes it."""
    return statistics.quantiles(times, n=100)[4] if len(times) > 1 else times[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds (default 5)")
    parser.add_argument("--ops", type=int, default=300,
                        help="ops per workload and round (default 300)")
    args = parser.parse_args()
    seeds = range(args.ops)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = [workloads(*load(src, side, tmp))
                 for src, side in zip((args.parent_src, args.change_src), SIDES)]
    differing = [f"{name} seed {s}" for name in trees[0] for s in seeds
                 if text(trees[0][name](s)) != text(trees[1][name](s))]
    for what in differing:
        print(f"differs: {what}")
    print(f"outputs: {len(seeds)} ops per workload, "
          + (f"{len(differing)} differing" if differing else "identical"))
    rounds = {name: [] for name in trees[0]}
    for r in range(args.rounds):
        line = []
        for name in trees[0]:
            times = ([], [])
            for i, s in enumerate(seeds):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    op = trees[side][name]
                    t0 = time.perf_counter()
                    op(s)
                    times[side].append(time.perf_counter() - t0)
            parent, change = (p5(x) * 1e3 for x in times)
            rounds[name].append((parent, change))
            line.append(f"{name} p5 {parent:.3f} -> {change:.3f} ms ({change / parent - 1:+.1%})")
        print(f"round {r + 1}: " + "  ".join(line))
    for name, pairs in rounds.items():
        wins = sum(change < parent for parent, change in pairs)
        median = statistics.median(change / parent - 1 for parent, change in pairs)
        print(f"{name}: change lower in {wins}/{len(pairs)} rounds, median {median:+.1%}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
