"""Batch command line front-end.

Verbs: validate, curvature, audit, export-zoo, list-zoo.  Inputs are either
spec-file paths or zoo references of the form ``zoo:name`` /
``zoo:name:key=value,key=value``.  All numeric output is printed with 17
significant digits; exit codes are 0 (success), 1 (mathematical validation
or audit failure), 2 (input error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import curvature as curv
from .contact import is_cosymplectic, validate_structure
from .expressions import ExpressionError, parse_expression
from .manifold import ChartManifold
from .metric import GeometryError, field_values
from .report import AuditReport, fmt
from .specfile import SpecFormatError, dump_spec, load_spec, manifold_to_dict
from .statistical import (StatisticalError, conjugate_connection, lambda_of,
                          validate_acs, validate_statistical)
from .zoo import UnsupportedDimensionError, get_entry, list_zoo

log = logging.getLogger("acsgeo")

EXIT_OK, EXIT_MATH_FAIL, EXIT_INPUT_ERROR = 0, 1, 2


class InputError(Exception):
    pass


# the errors main() reports with exit 2 and with exit 1
INPUT_ERRORS = (InputError, SpecFormatError, ExpressionError, OSError,
                UnsupportedDimensionError, curv.NotHorizontalError)
MATH_ERRORS = (GeometryError, StatisticalError, curv.CurvatureError)


def resolve_input(ref: str) -> ChartManifold:
    if ref.startswith("zoo:"):
        parts = ref.split(":", 2)
        name = parts[1]
        params = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                if "=" not in item:
                    raise InputError(f"malformed zoo parameter {item!r}")
                key, val = item.split("=", 1)
                params[key.strip()] = val.strip()
        try:
            return get_entry(name, **params).manifold
        except (KeyError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    if not os.path.exists(ref):
        raise InputError(f"no such spec file: {ref}")
    return load_spec(ref)


def emit(report: AuditReport, fmt_kind: str):
    if fmt_kind == "json":
        text = report.to_json_lines()
        if text:
            print(text)
    else:
        print(report.to_table())


def selected(name: str, checks) -> bool:
    return checks is None or name in checks


def curvature_grid(m: ChartManifold, pts):
    """Cache the statistical curvature of every grid point in one lane pass.
    When the pass raises an error that main() reports, nothing is cached
    and the verb evaluates point by point, so the error surfaces at the
    same point, with the same exit code and message, as without the pass."""
    start = time.perf_counter()
    try:
        curv.statistical_curvature_grid(m, pts)
    except INPUT_ERRORS + MATH_ERRORS as exc:
        log.info("curvature grid pass: fallback to per-point: %s", exc)
        return
    log.info("curvature grid pass: %d points in %.3f s", len(pts),
             time.perf_counter() - start)


# ---------------------------------------------------------------------------
# verbs


def axiom_checks(m: ChartManifold, pts, tol: float, checks=None) -> AuditReport:
    """The selected structure/statistical/ACS axiom checks at every point."""
    rep = AuditReport()
    for p in pts:
        if selected("structure", checks):
            rep.extend(validate_structure(m, p, tol=tol))
        if selected("statistical", checks):
            rep.extend(validate_statistical(m, p, tol=tol))
        if selected("acs", checks):
            rep.extend(validate_acs(m, p, tol=tol))
    return rep


def cmd_validate(m: ChartManifold, args) -> int:
    rep = axiom_checks(m, m.grid_points(args.grid), args.tol)
    emit(rep, args.format)
    return EXIT_OK if rep.all_passed else EXIT_MATH_FAIL


def _sections_at(m, frame, args, rng):
    if args.section:
        fields = [parse_expression(s, m.coords) for s in args.section.split(",")]
        if len(fields) != m.dim:
            raise InputError(
                f"--section needs {m.dim} comma-separated component expressions")
        return [np.array(field_values(fields, list(frame.point)), dtype=float)]
    return curv.sweep_sections(m, frame, rng=rng)


def cmd_curvature(m: ChartManifold, args) -> int:
    rng = np.random.default_rng(args.seed)
    rep = AuditReport()
    values = {"k_phi_S": [], "k_phi_0": [], "k_phi": [], "lambda": []}
    pts = m.grid_points(args.grid)
    curvature_grid(m, pts)
    for p in pts:
        fr = m.frame_at(p)
        lam = lambda_of(m, p, tol=max(args.tol, 1e-6))
        rep.add("curvature/lambda", p, 0.0, passed=True, value=lam)
        values["lambda"].append(lam)
        for x in _sections_at(m, fr, args, rng):
            k_s, k_0, k_phi = curv.phi_sectional_triple(m, p, x)
            for name, val in (("k_phi_S", k_s), ("k_phi_0", k_0), ("k_phi", k_phi)):
                rep.add(f"curvature/{name}", p, 0.0, passed=True, value=val)
                values[name].append(val)
    for name, vals in values.items():
        gap = (max(vals) - min(vals)) if vals else 0.0
        rep.add(f"curvature/constancy_gap/{name}", (), gap, passed=True, value=gap)
    emit(rep, args.format)
    return EXIT_OK if rep.all_passed else EXIT_MATH_FAIL


def cmd_audit(m: ChartManifold, args) -> int:
    checks = set(args.checks.split(",")) if args.checks else None
    rng = np.random.default_rng(args.seed)
    pts = m.grid_points(args.grid)
    if selected("thm_5_8", checks) or selected("prop_5_2", checks):
        curvature_grid(m, pts)
    rep = axiom_checks(m, pts, args.tol, checks)

    if selected("cosymplectic", checks):
        flag, res = is_cosymplectic(m, pts, tol=args.tol)
        rep.add("cosymplectic", pts[0], res, passed=True, value=float(flag))

    if selected("thm_5_8", checks):
        rep.extend(curv.theorem_5_8_audit(m, pts, tol=args.tol, rng=rng))

    compat_rep = None
    if selected("phi_compat", checks):
        compat_rep = curv.phi_compat_check(m, pts, tol=args.tol, rng=rng)
        rep.extend(compat_rep)

    for p in pts:
        if selected("lemma_5_6", checks):
            rep.add("lemma_5_6", p, curv.lemma_5_6_check(m, p), args.tol)
        if selected("geodesic", checks):
            n0, n1 = curv.geodesic_xi_check(m, p)
            rep.add("geodesic/nabla0_xi_xi", p, 0.0, passed=True, value=n0)
            rep.add("geodesic/nabla_xi_xi", p, 0.0, passed=True, value=n1)
        if selected("prop_5_2", checks):
            s, r0, kk, r, r_bar = curv.statistical_curvature(m, p)
            rep.add("prop_5_2", p, float(np.max(np.abs(s - r0 - kk))),
                    max(args.tol, 1e-6))
            fr = m.frame_at(p)
            low = np.einsum("am,mjkl->ajkl", fr.g, r)
            low_bar = np.einsum("am,mjkl->ajkl", fr.g, r_bar)
            dual_res = float(np.max(np.abs(low + np.einsum("jakl->ajkl", low_bar))))
            rep.add("conjugate_duality", p, dual_res, max(args.tol, 1e-6))
        if selected("duality", checks):
            _, res = conjugate_connection(m, p, tol=max(args.tol, 1e-6))
            rep.add("connection_duality", p, res, max(args.tol, 1e-6))

    if selected("psi", checks) and compat_rep is not None \
            and curv.is_phi_compatible(compat_rep):
        for p in pts:
            rep.extend(curv.psi_check(m, p, tol=args.tol, compat_report=compat_rep))

    emit(rep, args.format)
    return EXIT_OK if rep.all_passed else EXIT_MATH_FAIL


def cmd_export_zoo(args) -> int:
    m = resolve_input(args.input if args.input.startswith("zoo:")
                      else f"zoo:{args.input}")
    if args.output:
        dump_spec(m, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(manifold_to_dict(m), indent=2))
    return EXIT_OK


def cmd_list_zoo() -> int:
    for name in list_zoo():
        print(name)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="acsgeo",
        description="Pointwise audits of almost contact statistical structures")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="spec-file path or zoo:name[:k=v,...]")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--grid", type=int, default=None,
                       help="sample points per coordinate (default from spec)")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--checks", default=None,
                       help="comma list of check groups to run")
        p.add_argument("--section", default=None,
                       help="comma-separated component expressions of a section vector")
        p.add_argument("--seed", type=int, default=0)

    add_common(sub.add_parser("validate", help="structure/statistical/ACS axioms"))
    add_common(sub.add_parser("curvature", help="phi-sectional curvature triples"))
    add_common(sub.add_parser("audit", help="full theorem audit"))
    pe = sub.add_parser("export-zoo", help="write a zoo entry as a spec file")
    pe.add_argument("input")
    pe.add_argument("-o", "--output", default=None)
    sub.add_parser("list-zoo", help="list built-in zoo entries")
    return ap


def main(argv=None) -> int:
    level = os.environ.get("ACSM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-zoo":
            return cmd_list_zoo()
        if args.command == "export-zoo":
            return cmd_export_zoo(args)
        m = resolve_input(args.input)
        if args.command == "validate":
            return cmd_validate(m, args)
        if args.command == "curvature":
            return cmd_curvature(m, args)
        if args.command == "audit":
            return cmd_audit(m, args)
        raise InputError(f"unknown command {args.command}")
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MATH_ERRORS as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
