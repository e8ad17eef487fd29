"""Command-line interface.

Subcommands:
    centers  -- compute the center report for an instance file
    verify   -- run the randomized theorem-verification suites
    figure   -- emit an SVG figure for a planar instance

Exit codes: 0 success, 1 invalid input, 2 circumcenter not found.  The
default incidence tolerance can be overridden with the MINKCENTERS_EPS_GEOM
environment variable or the --tol flag.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .centers import full_report
from .circumcenter import is_circumcenter, solve_circumcenter
from .figures import SHOW_MODES, render_figure
from .instances import InstanceError, dump_report, load_instance, write_atomic
from .polygon import subpolygon_family, verify_polygon_theorems
from .verify import run_suites

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CENTER = 2


def _build_parser():
    p = argparse.ArgumentParser(prog="minkcenters",
                                description="Simplex and polygon centers in normed spaces")
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


def _parse_point(text):
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise InstanceError(f"cannot parse point: {text!r}") from None


def _diagnostics(inst):
    tol = inst.tolerances
    return {"tolerances": {"eps_geom": tol.eps_geom, "max_iters": tol.max_iters},
            "seed": inst.seed}


def _simplex_report(inst, assume_center):
    tol = inst.tolerances
    T = inst.simplex
    diagnostics = _diagnostics(inst)
    if assume_center is not None:
        M = _parse_point(assume_center)
        if is_circumcenter(inst.norm, T, M, tol) is None:
            print("error: --assume-center point is not a circumcenter at tolerance",
                  file=sys.stderr)
            return None, EXIT_NO_CENTER
        diagnostics["solver"] = {"status": "assumed", "starts_used": 0}
    else:
        result = solve_circumcenter(inst.norm, T, tol)
        diagnostics["solver"] = {"status": result.status, "residual": result.residual,
                                 "starts_used": result.starts_used}
        if not result.found:
            print("error: no circumcenter found at tolerance", file=sys.stderr)
            return None, EXIT_NO_CENTER
        M = result.center
    rep = full_report(inst.norm, T, M, tol)
    body = {
        "M": rep.M, "R": rep.R, "G": rep.G, "N_M": rep.N_M, "P_M": rep.P_M,
        "F_M": rep.F_M, "feuerbach_radius": rep.feuerbach_radius,
        "collapsed": rep.collapsed,
        "euler_line": None if rep.euler_line is None
        else {"base": rep.euler_line.base, "direction": rep.euler_line.direction},
        "facet_centroids": rep.facet_centroids,
        "division_points": rep.division_points,
    }
    return {"instance": inst.raw, "kind": "simplex", "report": body,
            "residuals": rep.ratio_residuals, "diagnostics": diagnostics}, EXIT_OK


def _polygon_report(inst):
    tol = inst.tolerances
    P = inst.polygon
    rep = subpolygon_family(P)
    checks = verify_polygon_theorems(P, tol)
    body = {
        "M": P.M, "R": P.R, "G": rep.G, "F_M": rep.F_M, "N_M": rep.N_M,
        "P_M": rep.P_M, "C_M": rep.C_M,
        "sub_complementary": rep.sub_complementary,
        "sub_spatial": rep.sub_spatial,
        "sub_monge": rep.sub_monge,
        "sub_centroids": rep.sub_centroids,
        "midpoints": rep.midpoints,
        "circles": {k: {"center": c, "radius": r} for k, (c, r) in rep.circles.items()},
    }
    residuals = {k: {"ok": ok, "residual": r} for k, (ok, r) in checks.items()}
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
    from .instances import default_tolerances

    dims = [int(x) for x in args.dims.split(",")] if args.dims else None
    norms = args.norms.split(",") if args.norms else None
    try:
        results = run_suites(args.suite, args.trials, dims=dims, norms=norms,
                             seed=args.seed, tol=default_tolerances(args.tol))
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
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
