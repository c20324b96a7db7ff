"""The benchmark's workloads: inputs made from a seed, one timed op, its checks.

Each workload exposes

    work_per_op    units of work one op completes (trials or problem files)
    pass_len       ops in one fixed pass of inputs (the traced run repeats it)
    op(i)          run op i through the public API or CLI; returns its output
    check(i, out)  list of failure messages for that output (empty if correct)
    fingerprint(out)  the bytes that must repeat when op i runs again

The library is reached only through module attributes looked up at call
time (jarlskog.verify.run_suite, jarlskog.cli.main), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np

import jarlskog.cli
import jarlskog.verify

#: trials per verify op, so that one op takes about 10 ms: the host's
#: co-tenant load slows ops in bursts of tens of milliseconds, and short ops
#: let the low latency percentile see whole uncontended ops
VERIFY_TRIALS = {3: 8, 4: 4}
#: verify ops in the fixed pass that the traced run repeats
VERIFY_PASS = 8
#: problem-file quartets (one file per n in {3, 4} and per V / U form)
PROBLEM_QUARTETS = 8
#: spectrum values are redrawn until every gap reaches this (as the CLI's sampler)
MIN_GAP = 0.05
#: oracle tolerance: |det_direct - det_numpy| <= ORACLE_C * eps * scale, where
#: scale is oracle_det's Hadamard bound; 2000 seeded problems peaked at 7.6
ORACLE_C = 64.0
#: the library's own bound on the 36-phase expansion residual
EXPANSION_ABS = 1e-12

_EPS = np.finfo(float).eps


class VerifyWorkload:
    """run_suite(n, trials, master_seed) on consecutive master seeds."""

    def __init__(self, n, seed):
        self.n = n
        self.trials = VERIFY_TRIALS[n]
        self.base_seed = seed * 1_000_000
        self.work_per_op = self.trials
        self.pass_len = VERIFY_PASS
        self.op_size = {"n": n, "trials_per_op": self.trials, "first_master_seed": self.base_seed}

    def op(self, i):
        return jarlskog.verify.run_suite(self.n, self.trials, self.base_seed + i)

    def check(self, i, report):
        text = report.render()
        if not (report.passed() and text.endswith("\noverall: PASS\n")):
            failing = [r.name for r in report.identities if not r.passed]
            return [f"master seed {self.base_seed + i}: report does not pass ({failing})"]
        return []

    def fingerprint(self, report):
        return report.render().encode()


def _haar(rng, n):
    """Haar unitary from numpy's QR with the diag(R) phase correction."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _spectrum(rng, n):
    while True:
        values = np.sort(rng.uniform(-1.0, 1.0, n))
        if np.min(np.diff(values)) >= MIN_GAP:
            return values


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def oracle_det(a, b, v):
    """numpy determinant of D V D' V+ - V D' V+ D, and the scale of its error.

    The scale is the Hadamard bound (product of row norms) of the entrywise
    majorant |a_i - a_j| sum_k |b_k| |V_ik| |V_jk|: rounding in each entry is
    relative to the terms summed into it, not to the entry, which can cancel.
    """
    d, dp = np.diag(a), np.diag(b)
    vh = v.conj().T
    m = d @ v @ dp @ vh - v @ dp @ vh @ d
    majorant = np.abs(a[:, None] - a[None, :]) * ((np.abs(v) * np.abs(b)) @ np.abs(v).T)
    return complex(np.linalg.det(m)), float(np.prod(np.linalg.norm(majorant, axis=1)))


class Problem:
    """One problem file on disk and the numpy oracle for its determinant."""

    def __init__(self, path, n, form, rng):
        self.path = str(path)
        self.n = n
        a, b = _spectrum(rng, n), _spectrum(rng, n)
        doc = {"format": "jarlskog-problem/1", "n": n, "a": a.tolist(), "b": b.tolist()}
        if form == "V":
            v = _haar(rng, n)
            doc["V"] = _pairs(v)
        else:
            u, up = _haar(rng, n), _haar(rng, n)
            doc["U"], doc["U_prime"] = _pairs(u), _pairs(up)
            v = u.conj().T @ up
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.oracle, self.scale = oracle_det(a, b, v)


_DET_LINE = re.compile(r"^det_direct: (\S+) (\S+)j$", re.MULTILINE)
_EXPANSION_LINE = re.compile(r"^expansion check \(36 phases from J\): max residual (\S+)$", re.MULTILINE)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = jarlskog.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ProblemsWorkload:
    """`det --method both` then `phases` on pre-written problem files.

    One op is a quartet: an n=3 and an n=4 file in V form and in U/U_prime
    form, each through both commands.  A quartet rather than a single file,
    so that per-op latency is one population and not four.
    """

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.quartets = [
            [Problem(workdir / f"q{q}-n{n}-{form}.json", n, form, rng)
             for n in (3, 4) for form in ("V", "U")]
            for q in range(PROBLEM_QUARTETS)
        ]
        self.work_per_op = 4
        self.pass_len = PROBLEM_QUARTETS
        self.op_size = {"files_per_op": 4, "quartets": PROBLEM_QUARTETS}

    def op(self, i):
        return [
            (_run_cli(["det", p.path, "--method", "both"]), _run_cli(["phases", p.path]))
            for p in self.quartets[i % self.pass_len]
        ]

    def check(self, i, outputs):
        failures = []
        for p, (det_run, phases_run) in zip(self.quartets[i % self.pass_len], outputs):
            failures += [f"{p.path}: {msg}" for msg in _check_problem(p, det_run, phases_run)]
        return failures

    def fingerprint(self, outputs):
        return json.dumps(outputs).encode()


def _check_problem(p, det_run, phases_run):
    failures = []
    code, out, err = det_run
    if code != 0 or err:
        failures.append(f"det exited {code}: {err.strip()}")
    if "\nagreement: pass" not in out:
        failures.append("det: closed form and direct determinant disagree")
    match = _DET_LINE.search(out)
    if match is None:
        failures.append("det: no det_direct line")
    else:
        value = complex(float(match.group(1)), float(match.group(2)))
        limit = ORACLE_C * _EPS * p.scale
        if abs(value - p.oracle) > limit:
            failures.append(
                f"det_direct {value!r} differs from numpy {p.oracle!r} by more than {limit:.3e}")

    code, out, err = phases_run
    if code != 0 or err:
        failures.append(f"phases exited {code}: {err.strip()}")
    if not out.startswith("invariant-phase report\n"):
        failures.append("phases: no report")
    elif p.n == 3:
        if ("sign pattern matches expected: True" not in out
                and "sign table: indeterminate" not in out):
            failures.append("phases: n=3 sign pattern does not match")
    else:
        match = _EXPANSION_LINE.search(out)
        if match is None or not float(match.group(1)) <= EXPANSION_ABS:
            failures.append("phases: 36-phase expansion residual missing or above bound")
    return failures
