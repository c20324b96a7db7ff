"""Command-line interface.

Subcommands:

    det     evaluate the commutator determinant of a problem file
    phases  write the invariant-phase report of a problem file
    verify  run the seeded identity suite and emit its report
    sample  generate a random problem file from a seed

Each command returns its text and its exit code, or raises OSError or
ValueError on bad input; main writes the text to stdout or --out, and owns
stderr and the input-error exit.  Exit codes: 0 success, 1 input error, 2
identity violation.  Reports are append-only: an existing --out path is
never overwritten.  verify's wall time goes to stderr so that report bytes
depend only on the inputs.

Importing this module loads no other module of the package, and each
command imports the modules it runs when it runs (through _module), so a
process compiles only those:

    det     problem_io, linalg, determinant
    phases  problem_io, linalg, determinant, phases
    verify  linalg, determinant, phases, sampling, verify
    sample  problem_io, linalg, determinant, sampling

--version and usage errors load none (a malformed --tol-rel or --tol-abs
loads determinant, whose check_tolerance it applies).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import sys
import time

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


@functools.cache
def _module(name):
    """The package's module `name`, imported on the first call.

    The commands reach their modules through this cached lookup rather than
    an import statement, because a relative import inside a function runs
    importlib's Python-level fromlist handling on every call.
    """
    return importlib.import_module(f"{__package__}.{name}")


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the input-error code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt_complex(z):
    return f"{z.real:.17e} {z.imag:+.17e}j"


def _finite(z):
    """True when z and its modulus are finite floats."""
    try:
        return math.isfinite(abs(z))
    except OverflowError:
        return False


def _tolerance(text):
    """argparse type of --tol-rel/--tol-abs: determinant.check_tolerance's rule."""
    try:
        return _module("determinant").check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")


def _emit(text, out_path):
    """Print to stdout, or write to a fresh file when out_path is given.

    The file is created exclusively, in one call: an existing path, a
    symlink included (even a dangling one), is refused, never followed.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(out_path, "x", encoding="utf-8")
    except FileExistsError:
        raise FileExistsError(
            f"refusing to overwrite existing report '{out_path}' (reports are append-only)"
        ) from None
    with fh:
        fh.write(text)


def _cmd_det(args):
    determinant = _module("determinant")
    inp = _module("problem_io").load_problem(args.file)
    n, method = inp.n, args.method
    if method in ("closed", "both") and n not in (3, 4):
        raise ValueError(f"no closed form for n={n}; closed evaluation supports n in {{3, 4}}")

    lines = [f"n: {n}"]
    values = {}
    # the problem as a stack of one trial, shared by the direct and the
    # closed route
    a, b = np.array([inp.a.values]).T, np.array([inp.b.values]).T
    cols = tuple(x[..., None] for x in inp.v.column_products)
    # overflow is reported below as an input error, not as a numpy warning
    with np.errstate(all="ignore"):
        if method in ("direct", "both"):
            values["det_direct"] = d = complex(determinant.det_direct(a, b, cols)[0])
        if method in ("closed", "both"):
            plaq = inp.v.plaquettes[..., None]
            closed = (determinant.det3_closed(a, b, plaq) if n == 3
                      else determinant.det4_closed(determinant.t_factors(a), b, cols, plaq))
            values["det_closed"] = c = complex(closed[0])
    for name, value in values.items():
        if not _finite(value):
            raise ValueError(f"{name} is not a finite number ({_fmt_complex(value)}); "
                             "a and b are too large for float64")
        lines.append(f"{name}: {_fmt_complex(value)}")
    code = EXIT_OK
    if method == "both":
        tol_rel = args.tol_rel if args.tol_rel is not None else determinant.CLOSED_REL[n]
        tol_abs = args.tol_abs if args.tol_abs is not None else 0.0
        disc = abs(c - d)
        bound = tol_rel * max(1.0, abs(d)) + tol_abs
        lines.append(f"discrepancy: {disc:.17e}")
        lines.append(f"bound: {bound:.17e}")
        if not disc <= bound:
            lines.append("agreement: FAIL")
            code = EXIT_VIOLATION
        else:
            lines.append("agreement: pass")
    return "\n".join(lines) + "\n", code


@functools.cache
def _phase_labels(n):
    """The labels of the canonical phases of the report, in table order."""
    pairs = _module("phases")._canonical_pairs(n)
    return tuple(f"({a}{b};{j}{k})" for (a, b) in pairs for (j, k) in pairs)


def _cmd_phases(args):
    phases = _module("phases")
    v = _module("problem_io").load_problem(args.file).v
    if v.n not in (3, 4):
        raise ValueError(f"phase reports support n in {{3, 4}}, got n={v.n}")
    lines = []
    lines.append("invariant-phase report")
    lines.append(f"tool_version: {__version__}")
    lines.append(f"n: {v.n}")
    # every phase layer runs on v's plaquette store as a stack of one
    res, ims = phases.phase_table(v.plaquettes[..., None])
    lines.append("")
    lines.append("canonical phases (rows alpha<beta, columns j<k):")
    labels = _phase_labels(v.n)
    for label, x, y in zip(labels, ims[:, 0].tolist(), res[:, 0].tolist()):
        lines.append(f"  {label}  im {x:+.17e}  re {y:+.17e}")
    if v.n == 3:
        base, signs, residuals, indeterminate = (x[..., 0] for x in phases.n3_phase_table(ims))
        lines.append("")
        lines.append(f"base phase (12;12): {base:+.17e}")
        if indeterminate:
            lines.append("sign table: indeterminate (base phase is zero)")
        else:
            signs = tuple(signs.tolist())
            lines.append("sign table (phase = sign * base):")
            for label, sign, residual in zip(labels, signs, residuals.tolist()):
                lines.append(f"  {label}  sign {sign:+d}  residual {residual:.17e}")
            lines.append(f"sign pattern matches expected: {signs == phases.N3_SIGN_PATTERN}")
        lines.append(f"max sign-table residual: {np.maximum.reduce(residuals):.17e}")
    else:
        recon = phases.reconstruct_J(v)
        lines.append("")
        lines.append("adjacent-index J (im) and R (re), entries (a, a+1; j, j+1):")
        for name, m in (("J", recon.j), ("R", recon.r)):
            for i, row in enumerate(m.tolist(), 1):
                lines.append(f"  {name}[{i},:] " + "  ".join(f"{x:+.17e}" for x in row))
        worst = phases.expansion_residual(ims, phases.expand_phases(recon.j[..., None]))[0]
        lines.append("")
        lines.append(f"expansion check (36 phases from J): max residual {worst:.17e}")
        lines.append("")
        lines.append("band reconstruction of J from (J11, J22, J33):")
        lines.append("  gate ratio (|prod a - prod b| / (|prod a| + |prod b|)): "
                     f"{recon.gate_ratio:.17e}")
        if recon.degenerate:
            lines.append("  status: degenerate (gate failed; no solve attempted)")
        else:
            lines.append(f"  status: solved, max |reconstructed - direct| = {recon.max_error:.17e}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_verify(args):
    report = _module("verify").run_suite(args.n, args.trials, args.seed,
                                         tol_rel=args.tol_rel, tol_abs=args.tol_abs)
    return report.render(), EXIT_OK if report.passed() else EXIT_VIOLATION


def _cmd_sample(args):
    sampling = _module("sampling")
    # any integer seed names the stream of its value mod 2^64
    seeds = np.array([args.seed & sampling._MASK64], dtype=np.uint64)
    v, a, b, _, _ = sampling.draw_trials(args.n, seeds)
    return _module("problem_io").render_problem(a[0], b[0], v[0]), EXIT_OK


def build_parser():
    parser = _Parser(
        prog="jarlskog",
        description="Commutator determinants and invariant phases of mixing matrices.",
    )
    parser.add_argument("--version", action="version", version=f"jarlskog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("det", help="evaluate the commutator determinant of a problem file")
    p_det.add_argument("file", help="problem file (JSON)")
    p_det.add_argument(
        "--method", choices=("direct", "closed", "both"), default="both",
        help="evaluation route (default: both)",
    )
    p_det.add_argument("--tol-rel", type=_tolerance, default=None,
                       help="relative agreement tolerance for --method both")
    p_det.add_argument("--tol-abs", type=_tolerance, default=None,
                       help="absolute agreement tolerance for --method both")
    p_det.set_defaults(func=_cmd_det, out=None)

    p_ph = sub.add_parser("phases", help="write the invariant-phase report of a problem file")
    p_ph.add_argument("file", help="problem file (JSON)")
    p_ph.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_ph.set_defaults(func=_cmd_phases)

    p_ver = sub.add_parser("verify", help="run the seeded identity suite")
    p_ver.add_argument("--n", type=int, default=4, help="dimension, 3 or 4 (default: 4)")
    p_ver.add_argument("--trials", type=int, default=1000, help="ensemble size (default: 1000)")
    p_ver.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p_ver.add_argument("--tol-rel", type=_tolerance, default=None,
                       help="override the closed-vs-direct relative tolerance")
    p_ver.add_argument("--tol-abs", type=_tolerance, default=None,
                       help="override the parity absolute floor")
    p_ver.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_ver.set_defaults(func=_cmd_verify)

    p_s = sub.add_parser("sample", help="generate a seeded random problem file")
    p_s.add_argument("--n", type=int, default=4, help="dimension, 2..8 (default: 4)")
    p_s.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    p_s.add_argument("--out", default=None, help="write the file here instead of stdout")
    p_s.set_defaults(func=_cmd_sample)
    return parser


@functools.cache
def _parser():
    """The parser of this process, built on first use.  Parsing leaves no
    state in it: each call returns a fresh namespace."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        text, code = args.func(args)
        elapsed = time.monotonic() - started
        _emit(text, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "verify":
        print(f"wall_time_s: {elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
