#!/usr/bin/env python3
"""Time whole `jarlskog` processes of two source trees against each other.

Each command below runs in a fresh interpreter with the src directory of
one tree first on PYTHONPATH, timed from the start of the process to its
exit, so that start-up (the interpreter, numpy and every module the
command imports and compiles) counts along with the command itself:

    import   python -c "import jarlskog.cli"
    det      python -m jarlskog det <n = 4 fixture>
    phases   python -m jarlskog phases <n = 4 fixture>
    verify   python -m jarlskog verify --trials 4
    sample   python -m jarlskog sample
    version  python -m jarlskog --version

Within a round the two trees alternate command by command, and the tree
that runs first alternates from one command and round to the next.  The
end prints, per command, each tree's median time, the median of the paired
savings (parent minus change, one pair per round) and in how many rounds
the change was faster.  Every run's stdout, stderr (without verify's
wall_time_s line) and exit code must match between the trees: the script
names each command whose outputs differ and then exits 1.

A process start is tens of milliseconds, and the host's load moves it by
several; pair many rounds (21 or more) before reading a saving.

Usage: python3 scripts/ab_startup.py PARENT_SRC CHANGE_SRC [--rounds R]

where each SRC is a directory holding the jarlskog package, such as the
src/ of a `git archive` of the parent commit and this tree's src/.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEM = os.path.join(ROOT, "tests", "data", "problem_n4_seed2024.json")
COMMANDS = {
    "import": ["-c", "import jarlskog.cli"],
    "det": ["-m", "jarlskog", "det", PROBLEM],
    "phases": ["-m", "jarlskog", "phases", PROBLEM],
    "verify": ["-m", "jarlskog", "verify", "--trials", "4"],
    "sample": ["-m", "jarlskog", "sample"],
    "version": ["-m", "jarlskog", "--version"],
}


def run(src, args):
    """(seconds, (stdout, stderr, exit code)) of one process on the tree at src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child and the time snaps to its grid
    res = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                         text=True)
    elapsed = time.perf_counter() - start
    err = "".join(line for line in res.stderr.splitlines(keepends=True)
                  if not line.startswith("wall_time_s:"))
    return elapsed, (res.stdout, err, res.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds (default 21)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    srcs = (os.path.abspath(args.parent_src), os.path.abspath(args.change_src))
    times = {name: ([], []) for name in COMMANDS}
    differing = set()
    for r in range(args.rounds):
        for i, (name, command) in enumerate(COMMANDS.items()):
            outputs = [None, None]
            for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                elapsed, outputs[side] = run(srcs[side], command)
                times[name][side].append(elapsed)
            if outputs[0] != outputs[1]:
                differing.add(name)
    for name in COMMANDS:
        if name in differing:
            print(f"differs: {name}")
    print(f"outputs: {len(COMMANDS)} commands, "
          + (f"{len(differing)} differing" if differing else "identical"))
    for name, (parent, change) in times.items():
        savings = [p - c for p, c in zip(parent, change)]
        wins = sum(s > 0 for s in savings)
        print(f"{name}: parent {statistics.median(parent) * 1e3:.1f} ms, "
              f"change {statistics.median(change) * 1e3:.1f} ms, "
              f"paired median saving {statistics.median(savings) * 1e3:+.1f} ms, "
              f"change faster in {wins}/{len(savings)} rounds")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
