"""Decision corpus: what every CLI run of a fixed op list decides.

A decision is the exit code, the first stderr line with its float
literals masked, and per record the check, point, pass flag and whether
the value is non-zero, plus the flags.  Decisions survive a change that
moves the last bits of residuals; byte digests of the output do not.

    python tests/decision_corpus.py record OUT.json
    python tests/decision_corpus.py compare BEFORE.json AFTER.json

``record`` runs every op in-process and writes, per op, the decision and
the floats behind it (residuals, values, the unmasked stderr line).  It
measures the ``acsgeo`` that ``PYTHONPATH`` names, else this checkout's
``src``, and prints the path of the one it imported.
``compare`` lists the ops whose decisions differ and the largest change of
any finite residual or value (and stderr float), absolute and relative to
max(1, |before|), and exits 1 when any op decides differently.  An op
where a float turns finite or non-finite, or a non-finite float changes
(inf to nan, say), decides differently too: the decision records only
whether a value is non-zero.  pytest
does not collect this file; ``tests/test_decisions.py`` pins the decision
digest of every op (``decision_digests.json``).
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
if not os.environ.get("PYTHONPATH"):    # else it names the acsgeo to measure
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import acsgeo  # noqa: E402
from acsgeo.cli import main  # noqa: E402
from acsgeo.specfile import manifold_to_dict  # noqa: E402
from acsgeo.zoo import get_entry  # noqa: E402

from contact_forms import LAMBDA, sasakian, warped_cone  # noqa: E402
from test_golden import SPECS as GOLDEN_SPECS  # noqa: E402
from test_invariance import WARPED, WARPED_CONNECTION, chart, pull_back  # noqa: E402

FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|-?inf|nan")

SPECS = dict(GOLDEN_SPECS)
SPECS.update({
    "warped": WARPED,
    "warped_connection_table": WARPED_CONNECTION,
    "poly3": {
        "coordinates": ["x", "y", "z"], "grid": 3,
        "metric_lower": [["1 + 0.1*x^2"], ["0.1*x*y", "1 + 0.1*(y^2 + z^2)"],
                         ["0.05*z", "0.1*x*z", "1 + 0.1*(x^2 + y^2)"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0.1*x", "1 + 0.2*y*z"], "K": {"z,z,z": "0.5 + 0.3*x*y"}},
    # d g overflows at x = 1 while g stays finite
    "exp709": {
        "coordinates": ["x", "y", "z"], "grid": 3,
        "metric_lower": [["1 + exp(709*x)"], ["0", "1 + exp(709*x)"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "K": {}},
    "indefinite": dict(GOLDEN_SPECS["inadmissible_k"], metric_lower=[
        ["-1"], ["0", "-1"], ["0", "0", "1"]], K={}),
})
for label, spec, seed in (
        ("pulled_mixed3", manifold_to_dict(get_entry("random", dim=3, seed=2,
                                                     family="mixed").manifold), 11),
        ("pulled_planar5", manifold_to_dict(get_entry("random", dim=5, seed=1,
                                                      family="planar-block").manifold), 12),
        ("pulled_warped", WARPED_CONNECTION, 13)):
    a, b = chart(len(spec["coordinates"]), seed)
    SPECS[label] = dict(pull_back(spec, a, b), grid=2)
# phi scaled by 1 - x1^2 vanishes at x1 = -1 and 1: a full audit fails there
# (Q(X, phi X) = 0), while the 9 points at x1 = 0 are phi-compatible, so a
# check that sweeps only those sees none of the failing statuses
_FLAT1 = manifold_to_dict(get_entry("example_flat_acs", n=1).manifold)
SPECS["flat1_scaled_phi"] = dict(_FLAT1, phi=[
    [entry if float(entry) == 0.0 else f"{entry}*(1 - x1^2)" for entry in row]
    for row in _FLAT1["phi"]])
# curved contact charts with exact phi-sectional curvatures (contact_forms.py)
CONTACT_SPECS = {"sasakian2": sasakian(2, LAMBDA), "cone2": warped_cone(2)}
SPECS.update(CONTACT_SPECS)

# spec files as text, for what a dict cannot hold: a name repeated in one
# object.  K^x_yz = 1 fails K_lower_symmetry, unless a repeated key or a
# repeated "K" were read as overriding it.  The flat specs whose third
# coordinate no tensor key or expression can name exit 2
_BODY = ('"grid": 2, "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]], '
         '"phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]], "xi": ["0", "0", "1"]')
_FLAT = '"coordinates": ["x", "y", "z"], ' + _BODY
SPEC_TEXTS = {
    "repeated_tensor_key": '{' + _FLAT + ', "K": {"x,y,z": "1", "x, y, z": "0"}}',
    "repeated_field": '{' + _FLAT + ', "K": {"x,y,z": "1"}, "K": {}}',
    "comma_coordinate": '{"coordinates": ["x", "y", "x,y"], ' + _BODY + ', "K": {}}',
    "empty_coordinate": '{"coordinates": ["x", "y", ""], ' + _BODY + ', "K": {}}',
    "function_coordinate": '{"coordinates": ["x", "sin", "z"], ' + _BODY + ', "K": {}}',
}
# an expression that does not parse, in the metric (alone, and beside a
# malformed phi, whose shape check comes first) or in a K entry, and a
# field that is not part of the spec format: each exits 2
_SPEC = json.loads('{' + _FLAT + ', "K": {}}')
_UNPARSED = [["sin("], ["0", "1"], ["0", "0", "1"]]
SPEC_TEXTS.update({name: json.dumps(dict(_SPEC, **fields)) for name, fields in (
    ("unparsed_metric", {"metric_lower": _UNPARSED}),
    ("unparsed_metric_null_phi", {"metric_lower": _UNPARSED, "phi": None}),
    ("unparsed_k_entry", {"K": {"x,y,z": "1 +"}}),
    ("unknown_field", {"gird": 5}))})


def _ops():
    zoo = ["zoo:example_r3_negative", "zoo:example_flat_acs:n=1",
           "zoo:example_flat_acs:n=2", "zoo:example_flat_acs:n=3"]
    zoo += [f"zoo:random:dim={d},seed={s},family={f}"
            for d in (3, 5) for s in (0, 1, 2)
            for f in ("trivial-lambda", "planar-block", "mixed")]
    zoo += [f"zoo:random:dim=7,seed=0,family={f}"
            for f in ("trivial-lambda", "planar-block", "mixed")]
    ops = []
    for ref in zoo + [f"@{name}" for name in SPECS
                      if name != "flat1_scaled_phi" and name not in CONTACT_SPECS]:
        grids = (1, 2) if "dim=7" in ref or "n=3" in ref else (1, 2, 3)
        for verb in ("validate", "curvature", "audit"):
            for grid in grids:
                ops.append([verb, ref, "--grid", str(grid), "--format", "json",
                            "--seed", str(grid)])
    for ref in ("zoo:example_r3_negative", "@warped", "@inadmissible_k", "@exp709"):
        for verb in ("validate", "curvature", "audit"):
            ops.append([verb, ref, "--grid", "2", "--format", "table"])
            for grid in ("0", "-1"):
                ops.append([verb, ref, "--grid", grid, "--format", "json"])
    for checks in ("thm_5_8", "prop_5_2", "phi_compat", "psi", "lemma_5_6,geodesic",
                   "duality", "cosymplectic"):
        for ref in ("@warped_connection", "@inadmissible_then_log", "@exp_frame"):
            ops.append(["audit", ref, "--checks", checks, "--format", "json"])
    for ref, section in (("zoo:example_r3_negative", "1,2,0"), ("@warped", "1,x,0"),
                         ("@warped", "0,0,1"), ("@lambda_from_zero", "1,0,1-x"),
                         ("zoo:example_flat_acs:n=2", "1,0,0,1,0"),
                         ("zoo:example_r3_negative", "1e-7,0,0")):
        ops.append(["curvature", ref, "--section", section, "--format", "json"])
    for ref in ("zoo:random:dim=5,sed=3", "zoo:random:dim=3,famly=mixed",
                "zoo:example_r3_negative:n=4", "zoo:example_flat_acs:m=2",
                "zoo:nope", "zoo:random:dim=4"):
        ops.append(["validate", ref, "--format", "json"])
    for name in SPEC_TEXTS:
        for verb in ("validate", "curvature", "audit"):
            ops.append([verb, f"@{name}", "--format", "json"])
    # options a verb does not read
    for verb, option, value in (("validate", "--section", "1,2,0"),
                                ("audit", "--section", "1,2,0"),
                                ("curvature", "--checks", "thm_5_8")):
        ops.append([verb, "zoo:example_r3_negative", option, value, "--format", "json"])
    # added last, so every op above keeps its number
    for verb in ("validate", "curvature", "audit"):
        for grid in (1, 2, 3):
            ops.append([verb, "@flat1_scaled_phi", "--grid", str(grid), "--format", "json",
                        "--seed", str(grid)])
    for checks in ("phi_compat", "psi", "thm_5_8,phi_compat,psi"):
        ops.append(["audit", "@flat1_scaled_phi", "--checks", checks, "--format", "json"])
    # 243 lanes in 16 chunks of the curvature pass: the benchmark's memory peak
    for verb in ("validate", "curvature", "audit"):
        ops.append([verb, "zoo:random:dim=7,seed=0,family=trivial-lambda", "--grid", "3",
                    "--format", "json"])
    # a group outside validate's three, named wrongly and on an input that
    # does not resolve: the group error lists validate's own groups
    ops.append(["validate", "zoo:example_r3_negative", "--checks", "thm58", "--format", "json"])
    ops.append(["validate", "zoo:nope", "--checks", "thm_5_8", "--format", "json"])
    # Sasakian R^5(-3) with K = lambda eta eta xi, and the warped cone
    for ref in CONTACT_SPECS:
        for verb in ("validate", "curvature", "audit"):
            ops.append([verb, f"@{ref}", "--grid", "2", "--format", "json"])
    # g(X, X) = 1e156 squares past the largest float: exit 2, no traceback
    ops.append(["curvature", "zoo:example_r3_negative", "--grid", "2", "--section", "1e78,0,0",
                "--format", "json"])
    return ops


OPS = _ops()


def run(argv, workdir):
    """(exit code, stdout, stderr) of one in-process CLI run; an ``@name``
    input is written to ``workdir`` as a spec file first.  Arguments that
    argparse refuses end the run in its SystemExit, whose code is kept."""
    argv = list(argv)
    if argv[1:] and argv[1].startswith("@"):
        name = argv[1][1:]
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            fh.write(SPEC_TEXTS[name] if name in SPEC_TEXTS else json.dumps(SPECS[name]))
        argv[1] = path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def decide(argv, code, out, err):
    """(decision, floats) of one run."""
    line = err.splitlines()[0] if err else ""
    records, flags, residuals, values = [], [], [], []
    for text in out.splitlines():
        if argv[-1] == "table" or "--format" not in argv:
            if text.startswith("flag: "):
                flags.append(text[6:])
            elif not text.startswith("check "):
                check, residual, result = text.split()
                records.append([check, None, result == "pass", None])
                residuals.append(float(residual))
            continue
        rec = json.loads(text)
        if "flag" in rec:
            flags.append(rec["flag"])
            continue
        value = rec.get("value")
        records.append([rec["check"], rec["point"], rec["pass"],
                        None if value is None else value != 0.0])
        residuals.append(rec["residual"])
        values.append(value)
    decision = {"exit": code, "stderr": FLOAT.sub("<f>", line), "records": records,
                "flags": flags}
    return decision, {"stderr": line, "residuals": residuals, "values": values}


def digest(decision) -> str:
    return hashlib.sha256(json.dumps(decision, sort_keys=True).encode()).hexdigest()


def decision_of(argv, workdir):
    return decide(argv, *run(argv, workdir))[0]


def record(path):
    corpus = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv in OPS:
            decision, floats = decide(argv, *run(argv, workdir))
            corpus.append({"argv": argv, "decision": decision, "floats": floats})
    with open(path, "w") as fh:
        json.dump(corpus, fh)
    print(f"{len(corpus)} ops of {os.path.dirname(acsgeo.__file__)} written to {path}")


def _floats(x):
    return [float(v) for v in FLOAT.findall(x)] if isinstance(x, str) else \
        [np.nan if v is None else float(v) for v in x]


def compare(before_path, after_path):
    with open(before_path) as fh:
        before = {json.dumps(op["argv"]): op for op in json.load(fh)}
    with open(after_path) as fh:
        after = {json.dumps(op["argv"]): op for op in json.load(fh)}
    assert before.keys() == after.keys(), "the corpora hold different ops"
    worst = {}
    changed = 0
    for key, b in before.items():
        a = after[key]
        if a["decision"] != b["decision"]:
            changed += 1
            print("decision differs:", " ".join(b["argv"]))
            for part in ("exit", "stderr", "flags"):
                if a["decision"][part] != b["decision"][part]:
                    print(f"  {part}: {b['decision'][part]!r} -> {a['decision'][part]!r}")
            if a["decision"]["records"] != b["decision"]["records"]:
                print(f"  records: {len(b['decision']['records'])} -> "
                      f"{len(a['decision']['records'])}, first differences:")
                pairs = zip(b["decision"]["records"], a["decision"]["records"])
                for rb, ra in [p for p in pairs if p[0] != p[1]][:3]:
                    print(f"    {rb} -> {ra}")
            continue
        non_finite = []
        for part in ("stderr", "residuals", "values"):
            xb, xa = np.array(_floats(b["floats"][part])), np.array(_floats(a["floats"][part]))
            if xb.shape != xa.shape or not xb.size:
                continue
            both = np.isfinite(xb) & np.isfinite(xa)
            if not np.array_equal(np.isfinite(xb), np.isfinite(xa)) or \
                    not np.array_equal(xb[~both], xa[~both], equal_nan=True):
                non_finite.append(part)
            diff = np.abs(xa[both] - xb[both])
            if diff.size:
                i = int(np.argmax(diff / np.maximum(1.0, np.abs(xb[both]))))
                rel = float(diff[i] / max(1.0, abs(xb[both][i])))
                if rel > worst.get(part, (0.0,))[0]:
                    worst[part] = (rel, float(diff[i]), " ".join(b["argv"]))
        if non_finite:
            changed += 1
            print("non-finite float differs:", " ".join(b["argv"]), ", ".join(non_finite))
    print(f"{changed} of {len(before)} ops decide differently")
    for part, (rel, absolute, argv) in worst.items():
        print(f"largest {part} change: {absolute:.3e} ({rel:.3e} relative) in {argv}")
    return changed


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"] and len(sys.argv) == 3:
        record(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(1 if compare(sys.argv[2], sys.argv[3]) else 0)
    else:
        sys.exit(__doc__)
