#!/usr/bin/env python3
"""Compare the CLI output of two source trees, command by command.

Runs one matrix of commands through jarlskog.cli.main against each tree
and compares stdout, stderr and the exit code of every command:

    verify --n {3,4} --trials {4,8,200,1000} --seed {0,13579}
    det <file> --method both and phases <file>, for every tests/data/problem_*.json
    sample --n {2,3,4,8} --seed 0..49
    every input-error exit: a missing file, an n=5 problem (written by the
    first tree's sample --n 5), spectra that overflow det, verify and
    sample arguments out of range, and --out onto an existing file

Each tree is imported by its own interpreter, which runs the whole matrix
in process.  stderr lines that start with "wall_time_s:" (verify's timing)
are dropped before comparing.  Prints each command whose output differs
and exits 1 on any difference, 0 when every stdout, stderr and exit code
agree.

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
import tempfile

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data")

#: runs in the interpreter of one tree: takes the commands as JSON in its
#: first argument, writes [jarlskog.__file__, [[stdout, stderr, exit code],
#: ...]] as JSON, with verify's wall-time line dropped from stderr
WORKER = """
import contextlib, io, json, sys
import jarlskog
from jarlskog.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = [line for line in err.getvalue().splitlines(keepends=True)
           if not line.startswith("wall_time_s:")]
    results.append([out.getvalue(), "".join(err), code])
json.dump([jarlskog.__file__, results], sys.stdout)
"""


def error_files(src, tmp):
    """Write the inputs of the error commands into tmp: an n=5 problem made
    by the sample command of the tree at src, the n=3 and n=4 fixtures with
    a and b scaled by 1e60, and an existing file named taken."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-m", "jarlskog", "sample", "--n", "5", "--seed", "2",
                    "--out", os.path.join(tmp, "n5.json")], env=env, check=True)
    for n, name in ((3, "problem_n3_seed501.json"), (4, "problem_n4_seed2024.json")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("a", "b"):
            doc[key] = [x * 1e60 for x in doc[key]]
        with open(os.path.join(tmp, f"big{n}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    open(os.path.join(tmp, "taken"), "w").close()


def commands(tmp):
    """The command matrix, as argv lists for jarlskog.cli.main, with the
    error commands reading the files of error_files in tmp."""
    argvs = [["verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
             for n in (3, 4) for trials in (4, 8, 200, 1000) for seed in (0, 13579)]
    for path in sorted(glob.glob(os.path.join(DATA, "problem_*.json"))):
        argvs += [["det", path, "--method", "both"], ["phases", path]]
    argvs += [["sample", "--n", str(n), "--seed", str(seed)]
              for n in (2, 3, 4, 8) for seed in range(50)]
    missing, n5, taken = (os.path.join(tmp, x) for x in ("missing.json", "n5.json", "taken"))
    argvs += [["det", missing], ["phases", missing], ["phases", n5]]
    argvs += [["det", n5, "--method", method] for method in ("closed", "both")]
    argvs += [["det", os.path.join(tmp, f"big{n}.json"), "--method", method]
              for n in (3, 4) for method in ("direct", "closed", "both")]
    argvs += [["verify", "--n", "5"], ["verify", "--trials", "0"], ["sample", "--n", "9"],
              ["phases", os.path.join(DATA, "problem_n3_seed501.json"), "--out", taken],
              ["verify", "--n", "3", "--trials", "2", "--out", taken],
              ["sample", "--out", taken]]
    return argvs


def start(src, argvs):
    """Start the worker interpreter of one tree on the command matrix."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, "-c", WORKER, json.dumps(argvs)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=os.path.abspath(src))


def finish(proc, src):
    """The [stdout, stderr, exit code] triples of one tree, after checking
    that its worker imported jarlskog from that tree."""
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
    with tempfile.TemporaryDirectory() as tmp:
        error_files(args.parent_src, tmp)
        argvs = commands(tmp)
        # the two trees run side by side, one interpreter each
        procs = [start(src, argvs) for src in (args.parent_src, args.change_src)]
        parent, change = (finish(proc, src)
                          for proc, src in zip(procs, (args.parent_src, args.change_src)))
    differing = 0
    for argv, (out_p, err_p, code_p), (out_c, err_c, code_c) in zip(argvs, parent, change):
        what = [name for name, x, y in (("stdout", out_p, out_c), ("stderr", err_p, err_c))
                if x != y]
        if code_p != code_c:
            what.append(f"exit code {code_p} -> {code_c}")
        if what:
            differing += 1
            print(f"differs ({', '.join(what)}): jarlskog {' '.join(argv)}")
    print(f"{len(argvs)} commands, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
