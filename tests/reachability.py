"""Reachability probe: which functions of ``src/acsgeo`` no CLI run calls.

    python tests/reachability.py            # print the never-called functions
    python tests/reachability.py --check    # compare them with never_called.txt

The probe imports ``acsgeo.cli`` under ``sys.setprofile``, so the code
every CLI process runs at import (the argument parser's build) counts as
called, then runs every op of ``decision_corpus.OPS`` in-process under it,
then ``export-zoo`` (to stdout and to a file), ``list-zoo``, a run with the
default table format and a run under ``ACSM_LOG=debug``.  Each called
code object is named ``module.Qualname`` through an ``ast`` walk of the
package's sources (by file and first line, a decorated function by its
decorators' lines too), so no ``co_qualname`` is needed.  It prints each
function that never ran, with its line count.

``--check`` compares that list with ``never_called.txt``, one
``module.Qualname  reason`` per line, each reason tagged with one of the
allowed reasons (a)-(e) listed there, and exits 1 when a never-called
function is not on the list, a listed function is now called, a listed
function no longer exists, or an entry has no tagged reason.  pytest does not collect this file;
``tests/test_reachability.py`` runs ``--check`` in a subprocess.
"""

import ast
import importlib
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "acsgeo")
ALLOWLIST = os.path.join(HERE, "never_called.txt")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)


def profiled(codes, fn, *args):
    """``fn(*args)`` with the code object of every call it makes added to
    ``codes``."""
    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    sys.setprofile(profile)
    try:
        return fn(*args)
    finally:
        sys.setprofile(None)


IMPORT_CODES = set()        # the calls of the import, before decision_corpus imports cli
profiled(IMPORT_CODES, importlib.import_module, "acsgeo.cli")

from decision_corpus import OPS, run  # noqa: E402

EXTRA_OPS = [
    ["export-zoo", "example_r3_negative"],
    ["export-zoo", "zoo:random:dim=5,seed=1,family=mixed", "-o", "{workdir}/exported.json"],
    ["list-zoo"],
    ["audit", "zoo:example_flat_acs", "--grid", "2"],
]
DEBUG_OP = ["audit", "@warped", "--grid", "2", "--format", "json"]


def functions():
    """{(path, line): qualname} and {qualname: line count} of every function
    of the package, keyed by its ``def`` line and its decorators' lines."""
    at, lines = {}, {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        module = name[:-3]

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{module}.{prefix}{child.name}"
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                        at[path, line] = qualname
                    lines[qualname] = child.end_lineno - child.lineno + 1
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)
        walk(tree, "")
    return at, lines


def debug_run(argv, workdir):
    """``run`` under ``ACSM_LOG=debug``."""
    os.environ["ACSM_LOG"] = "debug"
    try:
        run(argv, workdir)
    finally:
        del os.environ["ACSM_LOG"]


def called(at):
    """The qualnames of the functions that run while ``acsgeo.cli`` is
    imported and while the ops run."""
    codes = set(IMPORT_CODES)

    def run_all(ops, workdir):
        for argv in ops:
            run(argv, workdir)
        debug_run(DEBUG_OP, workdir)
    with tempfile.TemporaryDirectory() as workdir:
        ops = OPS + [[a.format(workdir=workdir) for a in op] for op in EXTRA_OPS]
        profiled(codes, run_all, ops, workdir)
    return {at[os.path.abspath(c.co_filename), c.co_firstlineno] for c in codes
            if (os.path.abspath(c.co_filename), c.co_firstlineno) in at}


def never_called():
    """{qualname: line count} of the package's functions that never run."""
    at, lines = functions()
    seen = called(at)
    return {q: n for q, n in lines.items() if q not in seen}, lines


def read_allowlist():
    """{qualname: reason} of ``never_called.txt`` (``#`` starts a comment)."""
    allowed = {}
    with open(ALLOWLIST) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                name, _, reason = line.partition(" ")
                allowed[name] = reason.strip()
    return allowed


def main(argv):
    dead, lines = never_called()
    print(f"{len(dead)} of {len(lines)} functions never called, "
          f"{sum(dead.values())} lines:")
    for name in sorted(dead):
        print(f"  {name}  {dead[name]}")
    if "--check" not in argv:
        return 0
    allowed = read_allowlist()
    problems = [f"never called and not allowlisted: {q}" for q in sorted(dead)
                if q not in allowed]
    problems += [f"allowlisted but no longer exists: {q}" for q in sorted(allowed)
                 if q not in lines]
    problems += [f"allowlisted but now called: {q}" for q in sorted(allowed)
                 if q in lines and q not in dead]
    problems += [f"allowlisted without a reason (a)-(e): {q}" for q in sorted(allowed)
                 if not re.match(r"\([a-e]\) ", allowed[q])]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
