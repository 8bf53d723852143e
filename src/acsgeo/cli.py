"""Batch command line front-end.

Verbs: validate, curvature, audit, export-zoo, list-zoo.  Inputs are either
spec-file paths or zoo references of the form ``zoo:name`` /
``zoo:name:key=value,key=value``.  JSON output writes each float as its
shortest round-trip repr, as ``json.dumps`` does; the table prints
residuals with 17 significant digits.  Exit codes are 0 (success), 1
(mathematical validation or audit failure), 2 (input error).

``GROUPS`` is the table of the check groups: the verbs that take each, its
run and its body; validate, curvature and audit are one loop over the runs
of the selected groups (``audit_report``).  The checks read the frames, the
statistical curvature, nabla^0 phi and the plain section sweep of the
sample points from the chart's store (``ChartManifold.kept``), each
computed once per run; a failing pass or check names its first failing
point, and ``curvature.replay`` reruns the points before it, to raise what
a per-point loop meets first.  No verb draws random numbers: ``--seed`` is
accepted and checked, and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from itertools import groupby
from types import SimpleNamespace
from typing import Callable, NamedTuple, Tuple

import numpy as np

from . import curvature as curv
from .contact import FrameError, is_cosymplectic, nabla0_phi, validate_structure
from .expressions import ExpressionError, parse_expression
from .manifold import GRID_CAP, ChartManifold, run_lanes
from .metric import FieldArray, GeometryError, field_jet, point_lanes
from .report import AuditReport, Column, within
from .specfile import SpecFormatError, dump_spec, load_spec, manifold_to_dict
from .statistical import (StatisticalError, conjugate_connections, validate_acs,
                          validate_statistical)
from .zoo import UnsupportedDimensionError, get_entry, list_zoo

log = logging.getLogger(__name__)
render_log = logging.getLogger("acsgeo.report")

EXIT_OK, EXIT_MATH_FAIL, EXIT_INPUT_ERROR = 0, 1, 2
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


class InputError(Exception):
    pass


class StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is when a record is emitted, so a run
    whose stderr is redirected logs there; setting ``stream`` does nothing."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


# the errors main() reports with exit 2 and with exit 1
INPUT_ERRORS = (InputError, SpecFormatError, ExpressionError, OSError,
                UnsupportedDimensionError, curv.NotHorizontalError)
MATH_ERRORS = (GeometryError, StatisticalError, curv.CurvatureError, FrameError)


def resolve_input(ref: str) -> ChartManifold:
    if ref.startswith("zoo:"):
        parts = ref.split(":", 2)
        name = parts[1]
        params = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                if "=" not in item:
                    raise InputError(f"malformed zoo parameter {item!r}")
                key, val = (part.strip() for part in item.split("=", 1))
                if key in params:
                    raise InputError(f"duplicate zoo parameter {key!r}")
                params[key] = val
        try:
            return get_entry(name, **params).manifold
        except (KeyError, ValueError) as exc:
            raise InputError(exc.args[0]) from exc
    if not os.path.exists(ref):
        raise InputError(f"no such spec file: {ref}")
    return load_spec(ref)


def emit(report: AuditReport, fmt_kind: str):
    """Print the records and then the flags, as a table or as JSON lines,
    and log the render at debug level.  When the reader closes stdout
    early, the rest of the output is dropped and the verb keeps its exit
    code."""
    start = time.perf_counter()
    if fmt_kind == "json":
        text = "\n".join(filter(None, [report.to_json_lines()] +
                                [json.dumps({"flag": msg}) for msg in report.flags]))
    else:
        text = report.to_table()
    try:
        if text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return
    if render_log.isEnabledFor(logging.DEBUG):
        render_log.debug("report: %d records at %d points rendered in %.3f s",
                         len(report.checks), report.point_count,
                         time.perf_counter() - start)


def sample_points(m: ChartManifold, grid) -> np.ndarray:
    """The (P, dim) sample grid of a run, ``ChartManifold.grid_points``:
    ``--grid`` points per coordinate, or the spec's grid when it is not
    given; fewer than one is an input error.  Any count keeps at most
    GRID_CAP points, and only their coordinates are computed; a grid the
    cap cuts logs its nominal and kept counts at info level."""
    k = m.grid if grid is None else grid
    if k < 1:
        raise InputError(f"grid must be at least 1 point per coordinate, got {k}")
    pts = m.grid_points(k)
    if len(pts) < k ** m.dim:
        log.info("sample grid: %d of %d points kept (grid cap %d)", len(pts), k ** m.dim,
                 GRID_CAP)
    return pts


# ---------------------------------------------------------------------------
# verbs


class Group(NamedTuple):
    """A ``--checks`` group: the verbs that take it, its run and its body,
    which reads ``ctx`` (the chart ``m``, ``tol``, the ``section`` text and
    the ``reports`` of earlier runs).  A run of several rows is one block of
    their columns, ``body(ctx, frames)``, under one ``curvature.replay``; a
    one-row run is ``body(ctx, points)``.  A run that a selected group
    ``reads`` runs too; it prints if a group of it is selected."""
    name: str
    verbs: Tuple[str, ...]
    run: str
    body: Callable
    reads: str = ""


_ZERO, _YES = np.zeros(1), np.ones(1, dtype=bool)


def _cosymplectic(ctx, pts) -> AuditReport:
    """The cosymplectic flag, one record at the first point (no ``replay``:
    only its frame pass fails, at its first failing point)."""
    flag, res = is_cosymplectic(ctx.m, pts, tol=ctx.tol)
    return AuditReport.from_columns(pts[:1], [
        Column("cosymplectic", np.array([res]), _YES, np.array([float(flag)]))])


def section_reader(m: ChartManifold, text: str):
    """``--section`` as a function of stacked frames: the section vector at
    each frame's point, (P, dim), by ``manifold.run_lanes``.  The components
    are parsed and indexed once, at the first call, so a malformed or
    wrong-arity section fails at the first point."""
    fields = []

    def at(frames):
        if not fields:
            parsed = [parse_expression(s, m.coords) for s in text.split(",")]
            if len(parsed) != m.dim:
                raise InputError(
                    f"--section needs {m.dim} comma-separated component expressions")
            fields.append(FieldArray(parsed))
        return run_lanes(lambda pts: field_jet(fields[0], point_lanes(pts), 0)[0], frames.point)
    return at


def _phi_sectional(ctx, pts) -> AuditReport:
    """lambda and the (K^S, K^0, K_phi) of each section at each point, then
    the constancy gap (max - min) of each over all points, at no point."""
    section = section_reader(ctx.m, ctx.section) if ctx.section else None
    lams, triples = curv.phi_sectional_triples(ctx.m, pts, section=section,
                                               lambda_tol=max(ctx.tol, 1e-6))
    names = ("k_phi_S", "k_phi_0", "k_phi")
    rep = AuditReport.from_columns(pts, [Column("curvature/lambda", _ZERO, _YES, lams)] + [
        Column(f"curvature/{name}", _ZERO, _YES, triples[:, j, n])
        for j in range(triples.shape[1]) for n, name in enumerate(names)],
        ctx.m.frame_stack(pts).lane)
    # the values in point-major order, as Python max and min take them
    values = [triples[..., n].ravel().tolist() for n in range(3)] + [lams.tolist()]
    gaps = [np.array([max(vals) - min(vals) if vals else 0.0]) for vals in values]
    rep.add_columns(np.zeros((1, 0)), [Column(f"curvature/constancy_gap/{name}", gap, _YES, gap)
                                       for name, gap in zip(names + ("lambda",), gaps)])
    return rep


# The check groups, in the order they run.  The bodies look up the checks
# they call at call time, so they call a name the benchmark's tracer rebinds
VALIDATE, AUDIT = ("validate", "audit"), ("audit",)
GROUPS = (
    Group("structure", VALIDATE, "axioms", lambda ctx, fs: validate_structure(ctx.m, fs, ctx.tol)),
    Group("statistical", VALIDATE, "axioms", lambda ctx, fs: validate_statistical(fs, ctx.tol)),
    Group("acs", VALIDATE, "axioms", lambda ctx, fs: validate_acs(fs, ctx.tol)),
    Group("cosymplectic", AUDIT, "cosymplectic", _cosymplectic),
    Group("thm_5_8", AUDIT, "thm_5_8",
          lambda ctx, pts: curv.theorem_5_8_audit(ctx.m, pts, tol=ctx.tol)),
    Group("phi_compat", AUDIT, "phi_compat",
          lambda ctx, pts: curv.phi_compat_check(ctx.m, pts, ctx.tol)),
    Group("lemma_5_6", AUDIT, "pointwise", lambda ctx, fs: [within("lemma_5_6", (
        curv.lemma_5_6_residuals(fs, ctx.m.kept(nabla0_phi, fs.point))), ctx.tol)]),
    Group("geodesic", AUDIT, "pointwise", lambda ctx, fs: [
        Column(f"geodesic/{name}", _ZERO, _YES, norm)
        for name, norm in zip(("nabla0_xi_xi", "nabla_xi_xi"), curv.geodesic_norms(fs))]),
    Group("prop_5_2", AUDIT, "pointwise", lambda ctx, fs: [
        within(name, res, max(ctx.tol, 1e-6)) for name, res in
        zip(("prop_5_2", "conjugate_duality"), curv.prop_5_2_residuals(ctx.m, fs))]),
    Group("duality", AUDIT, "pointwise", lambda ctx, fs: [within("connection_duality", (
        conjugate_connections(fs, tol=max(ctx.tol, 1e-6))[1]), max(ctx.tol, 1e-6))]),
    # Psi at phi-compatible points alone (phi_compat's verdict)
    Group("psi", AUDIT, "psi", lambda ctx, pts: curv.psi_check(
        ctx.m, pts, tol=ctx.tol, compat_report=ctx.reports["phi_compat"])
        if curv.is_phi_compatible(ctx.reports["phi_compat"]) else AuditReport(),
        reads="phi_compat"),
    Group("curvature", ("curvature",), "curvature", _phi_sectional),
)
CHECK_GROUPS = tuple(g.name for g in GROUPS if "audit" in g.verbs)     # in run order


def audit_report(m: ChartManifold, pts, tol: float, checks, section=None) -> AuditReport:
    """The records and flags of the groups ``checks`` at the points ``pts``:
    once, in table order, each run of ``GROUPS`` that a selected group is
    in or reads.  ``section`` is the curvature verb's ``--section``."""
    ctx = SimpleNamespace(m=m, tol=tol, section=section, reports={})
    read = {g.reads for g in GROUPS if g.name in checks}
    rep = AuditReport()
    for run, rows in groupby(GROUPS, key=lambda g: g.run):
        rows = list(rows)
        bodies = [g.body for g in rows if g.name in checks or run in read]
        if bodies and len(rows) > 1:
            def one_stack(points):
                fs = m.frame_stack(points)
                return AuditReport.from_columns(
                    fs.point, [c for body in bodies for c in body(ctx, fs)], fs.lane)
            ctx.reports[run] = curv.replay(one_stack, pts)
        elif bodies:
            ctx.reports[run] = bodies[0](ctx, pts)
        if any(g.name in checks for g in rows):
            rep.extend(ctx.reports[run])
    return rep


def cmd_check(args) -> int:
    """``validate``, ``curvature`` and ``audit``: the verb's ``--checks``
    groups (all when not given), checked before the input, then
    ``audit_report`` at the sample points, then ``emit``."""
    valid = [g.name for g in GROUPS if args.command in g.verbs]
    checks = set(valid if args.checks is None else args.checks.split(","))
    unknown = sorted(checks - set(valid))
    if unknown:
        raise InputError(f"unknown check group {', '.join(map(repr, unknown))}; "
                         f"valid groups: {', '.join(valid)}")
    if args.seed < 0:
        raise InputError(f"seed must be non-negative, got {args.seed}")
    if not 0.0 <= args.tol < float("inf"):
        raise InputError(f"tol must be finite and non-negative, got {args.tol}")
    m = resolve_input(args.input)
    rep = audit_report(m, sample_points(m, args.grid), args.tol, checks, args.section)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative float in any spelling
    (``-1e-5``, ``-inf``) as a value, where argparse alone takes only
    ``-1`` and ``-0.5`` for values and the rest for unknown options, so
    ``--tol -1e-5`` reaches the tolerance check as ``--tol=-1e-5`` does."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser():
    """The argument parser of ``acsgeo``, with every verb; ``PARSER`` is the
    one a process parses with."""
    ap = _Parser(
        prog="acsgeo",
        description="Pointwise audits of almost contact statistical structures")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(name, text, option, option_help):
        p = sub.add_parser(name, help=text)
        p.add_argument("input", help="spec-file path or zoo:name[:k=v,...]")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--grid", type=int, default=None,
                       help="sample points per coordinate (default from spec)")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.set_defaults(checks=None, section=None)     # the option of another verb
        p.add_argument(option, default=None, help=option_help)
        # no verb draws, but command lines pass every verb a seed
        p.add_argument("--seed", type=int, default=0, help="accepted; no verb draws")

    checks = "comma list of check groups to run"
    add_common("validate", "structure/statistical/ACS axioms", "--checks", checks)
    add_common("curvature", "phi-sectional curvature triples", "--section",
               "comma-separated component expressions of a section vector")
    add_common("audit", "full theorem audit", "--checks", checks)
    pe = sub.add_parser("export-zoo", help="write a zoo entry as a spec file")
    pe.add_argument("input")
    pe.add_argument("-o", "--output", default=None)
    sub.add_parser("list-zoo", help="list built-in zoo entries")
    return ap


# built once, at import: a parser holds no input, so every call parses with it
PARSER = build_parser()


def main(argv=None) -> int:
    """Runs the verb of ``argv`` (default ``sys.argv[1:]``) and returns its
    exit code.  ``PARSER``, built at import, parses it and builds nothing;
    a parse error prints argparse's usage, which lists every verb, and its
    message, and exits 2."""
    args = PARSER.parse_args(argv)
    try:
        level = os.environ.get("ACSM_LOG", "warning")
        if level.lower() not in LOG_LEVELS:
            raise InputError(f"ACSM_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}")
        root = logging.getLogger()     # each call logs at its own ACSM_LOG level
        if not root.handlers:
            handler = StderrHandler()
            handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
            root.addHandler(handler)
        root.setLevel(level.upper())
        if args.command == "list-zoo":
            return cmd_list_zoo()
        if args.command == "export-zoo":
            return cmd_export_zoo(args)
        return cmd_check(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MATH_ERRORS as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
