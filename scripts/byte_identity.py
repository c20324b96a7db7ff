#!/usr/bin/env python3
"""Compare the CLI output of two source trees, command by command.

Runs one matrix of commands through jarlskog.cli.main against each tree
and compares stdout and the exit code of every command:

    verify --n {3,4} --trials {4,8,200,1000} --seed {0,13579}
    det <file> --method both and phases <file>, for every tests/data/problem_*.json
    sample --n {2,3,4,8} --seed 0..49

Each tree is imported by its own interpreter, which runs the whole matrix
in process.  stderr is not compared: verify writes its wall time there.
Prints each command whose output differs and exits 1 on any difference,
0 when every stdout and exit code agree.

Usage: python3 scripts/byte_identity.py PARENT_SRC CHANGE_SRC

where each argument is a directory holding the jarlskog package, such as
the src/ of a `git archive` of the parent commit and this tree's src/.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data")

#: runs in the interpreter of one tree: takes the commands as JSON in its
#: first argument, writes [jarlskog.__file__, [[stdout, exit code], ...]]
#: as JSON
WORKER = """
import contextlib, io, json, sys
import jarlskog
from jarlskog.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), code])
json.dump([jarlskog.__file__, results], sys.stdout)
"""


def commands():
    """The command matrix, as argv lists for jarlskog.cli.main."""
    argvs = [["verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
             for n in (3, 4) for trials in (4, 8, 200, 1000) for seed in (0, 13579)]
    for path in sorted(glob.glob(os.path.join(DATA, "problem_*.json"))):
        argvs += [["det", path, "--method", "both"], ["phases", path]]
    argvs += [["sample", "--n", str(n), "--seed", str(seed)]
              for n in (2, 3, 4, 8) for seed in range(50)]
    return argvs


def start(src, argvs):
    """Start the worker interpreter of one tree on the command matrix."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", WORKER, json.dumps(argvs)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=os.path.abspath(src))


def finish(proc, src):
    """The [stdout, exit code] pairs of one tree, after checking that its
    worker imported jarlskog from that tree."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"{src}: the worker failed:\n{err}")
    module, results = json.loads(out)
    if not os.path.abspath(module).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"{src}: jarlskog was imported from {module}")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    args = parser.parse_args()
    argvs = commands()
    # the two trees run side by side, one interpreter each
    procs = [start(src, argvs) for src in (args.parent_src, args.change_src)]
    parent, change = (finish(proc, src)
                      for proc, src in zip(procs, (args.parent_src, args.change_src)))
    differing = 0
    for argv, (out_p, code_p), (out_c, code_c) in zip(argvs, parent, change):
        if out_p != out_c or code_p != code_c:
            differing += 1
            what = "stdout" if out_p != out_c else f"exit code {code_p} -> {code_c}"
            print(f"differs ({what}): jarlskog {' '.join(argv)}")
    print(f"{len(argvs)} commands, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
