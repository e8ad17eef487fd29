"""Command-line interface.

Subcommands:
    centers  -- compute the center report for an instance file
    verify   -- run the randomized theorem-verification suites
    figure   -- emit an SVG figure for a planar instance

Exit codes: 0 success, 1 invalid input or usage error, 2 no circumcenter
(none exists under a polyhedral norm, or the smooth solver found none).  The
--tol flag sets the incidence tolerance eps_geom; it wins over an instance
file's "tolerances", which wins over the default 1e-9.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .centers import _report
from .circumcenter import is_circumcenter, solve_circumcenter
from .figures import SHOW_MODES, render_figure
from .instances import InstanceError, dump_report, load_instance, write_atomic
from .norms import Tolerances
from .polygon import _polygon_claims, subpolygon_family
from .verify import run_suites

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CENTER = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means "no circumcenter"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="minkcenters", description="Simplex and polygon centers in normed spaces")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("centers", help="compute centers for an instance file")
    c.add_argument("instance")
    c.add_argument("--out", help="report file (default: stdout)")
    c.add_argument("--tol", type=float, help="override eps_geom")
    c.add_argument("--assume-center", metavar="COORDS",
                   help="comma-separated circumcenter to certify and use")

    v = sub.add_parser("verify", help="run randomized verification suites")
    v.add_argument("--suite", choices=["simplex", "polygon", "orthogonality", "all"],
                   default="all")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--dims", help="comma-separated dimensions / polygon degrees")
    v.add_argument("--norms", help="comma-separated norm names (e.g. euclidean,l3,linf)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, help="override eps_geom")

    f = sub.add_parser("figure", help="emit an SVG figure for a 2D instance")
    f.add_argument("instance")
    f.add_argument("--out", default="figure.svg")
    f.add_argument("--show", choices=list(SHOW_MODES), default="euler")
    f.add_argument("--width", type=int, default=600)
    f.add_argument("--tol", type=float, help="override eps_geom")
    return p


def _parse_point(text, dim):
    """The finite point of R^dim written as comma-separated coordinates."""
    try:
        point = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise InstanceError(f"cannot parse point: {text!r}") from None
    if len(point) != dim:
        raise InstanceError(f"point {text!r} needs {dim} coordinates, not {len(point)}")
    if not np.isfinite(point).all():
        raise InstanceError(f"point coordinates must be finite: {text!r}")
    return point


def _diagnostics(inst):
    return {"tolerances": asdict(inst.tolerances), "seed": inst.seed}


def _simplex_report(inst, assume_center):
    tol = inst.tolerances
    T = inst.simplex
    diagnostics = _diagnostics(inst)
    if assume_center is not None:
        M = _parse_point(assume_center, T.dim)
        R = is_circumcenter(inst.norm, T, M, tol)
        if R is None:
            print("error: --assume-center point is not a circumcenter at tolerance",
                  file=sys.stderr)
            return None, EXIT_NO_CENTER
        diagnostics["solver"] = {"status": "assumed", "starts_used": 0}
    else:
        result = solve_circumcenter(inst.norm, T, tol)
        diagnostics["solver"] = {"status": result.status, "residual": result.residual,
                                 "starts_used": result.starts_used}
        if result.status == "none":
            print("error: no circumcenter exists under this polyhedral norm", file=sys.stderr)
            return None, EXIT_NO_CENTER
        if not result.found:
            print("error: no circumcenter found at tolerance", file=sys.stderr)
            return None, EXIT_NO_CENTER
        M, R = result.center, result.radius
    body = asdict(_report(T, M, R, tol))
    residuals = body.pop("ratio_residuals")
    return {"instance": inst.raw, "kind": "simplex", "report": body,
            "residuals": residuals, "diagnostics": diagnostics}, EXIT_OK


def _polygon_report(inst):
    P = inst.polygon
    rep = subpolygon_family(P)
    body = dict(asdict(rep), M=P.M, R=P.R,
                circles={k: {"center": c, "radius": r} for k, (c, r) in rep.circles.items()})
    residuals = {k: {"ok": ok, "residual": r}
                 for k, (ok, r) in _polygon_claims(P, rep, inst.tolerances).items()}
    return {"instance": inst.raw, "kind": "polygon", "report": body,
            "residuals": residuals, "diagnostics": _diagnostics(inst)}, EXIT_OK


def cmd_centers(args):
    inst = load_instance(args.instance, args.tol)
    if inst.kind == "simplex":
        report, code = _simplex_report(inst, args.assume_center)
    else:
        report, code = _polygon_report(inst)
    if report is None:
        return code
    text = dump_report(report)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return code


def cmd_verify(args):
    dims = [int(x) for x in args.dims.split(",")] if args.dims else None
    norms = args.norms.split(",") if args.norms else None
    try:
        tol = None if args.tol is None else Tolerances(args.tol)
        results = run_suites(args.suite, args.trials, dims=dims, norms=norms,
                             seed=args.seed, tol=tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    all_ok = True
    for suite, claims in results.items():
        for claim, st in sorted(claims.items()):
            status = "PASS" if st.passed else "FAIL"
            all_ok &= st.passed
            print(f"{status} {suite}/{claim}: trials={st.trials} "
                  f"failures={st.failures} max_residual={st.max_residual:.3e}")
    return EXIT_OK if all_ok else EXIT_INVALID


def cmd_figure(args):
    inst = load_instance(args.instance, args.tol)
    try:
        svg = render_figure(inst, show=args.show, width=args.width)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    write_atomic(args.out, svg)
    return EXIT_OK


def _join_negative_points(argv):
    """'--assume-center -1,0' -> '--assume-center=-1,0'.

    argparse reads a value that starts with '-' as an option unless it is a
    plain number, and "-1,0" is not one.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--assume-center" and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_points(argv))
    try:
        if args.command == "centers":
            return cmd_centers(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_figure(args)
    except ValueError as exc:  # InstanceError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
