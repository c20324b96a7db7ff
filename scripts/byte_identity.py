#!/usr/bin/env python3
"""Compare the CLI output of two source trees, command by command.

Runs one matrix of commands through jarlskog.cli.main against each tree
and compares stdout, stderr and the exit code of every command:

    verify --n {3,4} --trials {1,4,8,200,256,257,1000} --seed {0,13579}: a
    stack of one, the benchmark's chunk sizes, part of a chunk, exactly one
    chunk (verify.TRIAL_CHUNK is 256), one trial past it and many chunks
    det <file> --method both and phases <file>, for every tests/data/problem_*.json
    and for the structured problems of structured_files: signed permutations
    with +-0.0 parts at n=3 and n=4, 1 (+) V3 and a real rotation
    det <file> --method direct on sampled problems at n = 2, 5, 6, 7 and 8
    (written by the first tree's sample --n <n>), where the stacked layers
    meet sums of 8 entries on a stack of one
    sample --n {2,3,4,8} --seed 0..49, and sample --n 4 at the seeds -1
    and 2^64 + 5, outside the uint64 range
    every input-error exit: a missing file, phases and the closed forms of
    the n=5 problem, spectra that overflow det, U/U_prime problems at n=3
    and n=4 with a non-unitary U, a non-finite U_prime, a defect in
    V = U^+ U_prime alone and an overflowing U_prime, verify and sample
    arguments out of range, and --out onto an existing file

Each tree is imported by its own interpreter, which runs the whole matrix
in process.  stderr lines that start with "wall_time_s:" (verify's timing)
are dropped before comparing.  Prints each command whose output differs
and exits 1 on any difference, 0 when every stdout, stderr and exit code
agree.  The matrix holds 286 commands and runs in a few seconds.

Usage: python3 scripts/byte_identity.py PARENT_SRC CHANGE_SRC

where each argument is a directory holding the jarlskog package, such as
the src/ of a `git archive` of the parent commit and this tree's src/.
"""

import argparse
import glob
import json
import math
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


#: the dimensions of the sampled problems that det --method direct reads
SAMPLED_DIMENSIONS = (2, 5, 6, 7, 8)
#: the U/U_prime fixture of each n
PAIR_FIXTURES = {3: "problem_n3_uu_seed601.json", 4: "problem_n4_uu_seed602.json"}
#: the faults of the U/U_prime error files, named by file stem: the entry
#: [0][0] of one field set to [re, im], or both fields set to (1 + 4.9e-11) I,
#: each within the unitarity bound while their product V is not
PAIR_FAULTS = {"u_not_unitary": ("U", [5.0, 0.0]), "u_prime_nan": ("U_prime", [math.nan, 0.0]),
               "v_not_unitary": None, "u_prime_overflow": ("U_prime", [1e300, 0.0])}


def error_files(src, tmp):
    """Write the inputs of the n != 3, 4 and error commands into tmp: the
    problems n2.json, n5.json, ..., n8.json made by the sample command of
    the tree at src, the n=3 and n=4 fixtures with
    a and b scaled by 1e60, the U/U_prime fixtures with each of PAIR_FAULTS
    (as <fault><n>.json), and an existing file named taken."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for n in SAMPLED_DIMENSIONS:
        subprocess.run([sys.executable, "-m", "jarlskog", "sample", "--n", str(n), "--seed", "2",
                        "--out", os.path.join(tmp, f"n{n}.json")], env=env, check=True)
    for n, name in ((3, "problem_n3_seed501.json"), (4, "problem_n4_seed2024.json")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("a", "b"):
            doc[key] = [x * 1e60 for x in doc[key]]
        with open(os.path.join(tmp, f"big{n}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for n, name in PAIR_FIXTURES.items():
        for fault, change in PAIR_FAULTS.items():
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            if change is None:
                doc["U"] = doc["U_prime"] = [[[1.0 + 4.9e-11 if i == j else 0.0, 0.0]
                                              for j in range(n)] for i in range(n)]
            else:
                doc[change[0]][0][0] = change[1]
            with open(os.path.join(tmp, f"{fault}{n}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    open(os.path.join(tmp, "taken"), "w").close()


def write_problem(path, a, b, v):
    """Write a V-form problem file with spectra a, b and V given as rows of
    (re, im) pairs."""
    doc = {"format": "jarlskog-problem/1", "n": len(a), "a": a, "b": b,
           "V": [[list(z) for z in row] for row in v]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def structured_files(tmp):
    """Write the structured problems into tmp and return their paths: signed
    permutations at n=3 and n=4 whose zero parts are +0.0 and -0.0, 1 (+) V3
    with V3 the matrix of problem_n3_seed501.json, and a real rotation of
    dimension 4 (a Givens product over every plane).  Each takes the
    spectra of the fixture of its n."""
    spectra = {}
    for n, name in ((3, "problem_n3_seed501.json"), (4, "problem_n4_seed2024.json")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        spectra[n] = (doc["a"], doc["b"], doc["V"])
    problems = {}
    # the unit of row i sits in column perm[i]; every zero part is signed
    for n, perm, units in ((3, (2, 0, 1), ((-0.0, -1.0), (-1.0, -0.0), (0.0, 1.0))),
                           (4, (1, 3, 0, 2), ((1.0, -0.0), (-0.0, 1.0), (-1.0, 0.0),
                                              (-0.0, -1.0)))):
        problems[f"signed_permutation{n}"] = (n, [
            [units[i] if j == perm[i] else ((-0.0, 0.0) if (i + j) % 2 else (0.0, -0.0))
             for j in range(n)] for i in range(n)])
    v3 = spectra[3][2]
    problems["one_plus_v3"] = (4, [[(1.0, 0.0)] + [(0.0, 0.0)] * 3]
                               + [[(0.0, 0.0)] + [tuple(z) for z in row] for row in v3])
    rotation = [[float(i == j) for j in range(4)] for i in range(4)]
    for p in range(4):
        for q in range(p + 1, 4):
            c, s = math.cos(0.3 + 0.2 * p + 0.1 * q), math.sin(0.3 + 0.2 * p + 0.1 * q)
            for row in rotation:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    problems["real_rotation"] = (4, [[(x, 0.0) for x in row] for row in rotation])
    paths = []
    for name, (n, v) in problems.items():
        paths.append(os.path.join(tmp, f"{name}.json"))
        write_problem(paths[-1], *spectra[n][:2], v)
    return paths


def commands(tmp):
    """The command matrix, as argv lists for jarlskog.cli.main, with the
    error commands reading the files of error_files in tmp."""
    argvs = [["verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
             for n in (3, 4) for trials in (1, 4, 8, 200, 256, 257, 1000)
             for seed in (0, 13579)]
    for path in sorted(glob.glob(os.path.join(DATA, "problem_*.json"))) + structured_files(tmp):
        argvs += [["det", path, "--method", "both"], ["phases", path]]
    argvs += [["det", os.path.join(tmp, f"n{n}.json"), "--method", "direct"]
              for n in SAMPLED_DIMENSIONS]
    argvs += [["sample", "--n", str(n), "--seed", str(seed)]
              for n in (2, 3, 4, 8) for seed in range(50)]
    # seeds outside [0, 2^64), which name the stream of their value mod 2^64
    argvs += [["sample", "--n", "4", "--seed", str(seed)] for seed in (-1, 2 ** 64 + 5)]
    missing, n5, taken = (os.path.join(tmp, x) for x in ("missing.json", "n5.json", "taken"))
    argvs += [["det", missing], ["phases", missing], ["phases", n5]]
    argvs += [["det", n5, "--method", method] for method in ("closed", "both")]
    argvs += [["det", os.path.join(tmp, f"big{n}.json"), "--method", method]
              for n in (3, 4) for method in ("direct", "closed", "both")]
    argvs += [[command, os.path.join(tmp, f"{fault}{n}.json")]
              for n in PAIR_FIXTURES for fault in PAIR_FAULTS for command in ("det", "phases")]
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
