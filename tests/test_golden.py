"""Golden outputs: the sha256 of (exit code, stdout) of a fixed set of CLI
runs.  Any refactor of the evaluation engine must leave every residual,
flag and exit code byte-identical; a deliberate change of output updates
the pinned digest together with a note of why it changed."""

import hashlib
import json
import logging

import pytest

from acsgeo import curvature
from acsgeo.cli import main

F = "1 + 0.3*(x^2 + y^2)"
FX = f"0.3*x/({F})"     # f_x / (2 f)
FY = f"0.3*y/({F})"     # f_y / (2 f)
SPECS = {
    # g = diag(f, f, 1), given as its Levi-Civita table plus a non-constant
    # lambda on Gamma^z_zz, so K = lambda eta(x)eta(x)xi with lambda = 0.5 + 0.3xy
    "warped_connection": {
        "coordinates": ["x", "y", "z"], "grid": 3,
        "metric_lower": [[F], ["0", F], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
        "connection": {
            "x,x,x": FX, "x,x,y": FY, "x,y,x": FY, "x,y,y": f"-1*{FX}",
            "y,x,x": f"-1*{FY}", "y,x,y": FX, "y,y,x": FX, "y,y,y": FY,
            "z,z,z": "0.5 + 0.3*x*y"},
    },
    # K(xi, xi) = d/dx breaks K(X, xi) = lambda eta(X) xi: audit exits 1
    "inadmissible_k": {
        "coordinates": ["x", "y", "z"], "grid": 2,
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "K": {"x,z,z": "1"},
    },
}

# a linear pull-back of a warped chart: the metric has off-diagonal and
# transcendental entries
PB = "exp(0.1*((u + 3*v)^2 + v^2))"
SPECS["pulled_back_warped"] = {
    "coordinates": ["u", "v", "w"], "grid": 4,
    "metric_lower": [[PB], [f"3*{PB}", f"10*{PB}"], ["0", "0", "1"]],
    "phi": [["-3", "-10", "0"], ["1", "3", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}
# singular at x = -1 (the first points) and a log domain error at x = 1:
# evaluated point by point, the singularity surfaces first, naming its point
SPECS["two_failures"] = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["x + 1 + 0*log(0.5 - x)"], ["0", "1"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}
# an inadmissible K on a flat chart whose metric has a log domain error at
# x = 1 (the last points): the audits fail at the first point before the
# domain error, unless no check reads K(X, xi)
SPECS["inadmissible_then_log"] = dict(
    SPECS["inadmissible_k"], grid=3,
    metric_lower=[["2 + 0*log(0.5 - x)"], ["0", "1"], ["0", "0", "1"]])

# the planar K block of example_r3_negative scaled by 1e-5: K_phi = -1e-10
# passes the tolerance and K = lambda eta eta xi does not, so every point of
# an audit raises an EquivalenceViolation flag
SPECS["small_planar"] = dict(SPECS["inadmissible_k"], K={
    key: repr(sign * 5e-6) for key, sign in (
        ("x,x,x", -1), ("y,x,x", 1), ("x,x,y", 1), ("x,y,x", 1),
        ("y,x,y", 1), ("y,y,x", 1), ("x,y,y", 1), ("y,y,y", -1))})

# two failures on a flat chart, each at a different step of a point: a K
# that misses the closed form at x = -1 (the first points) and breaks
# K(X, xi) = lambda eta(X) xi from x = 0 on, and the same lambda failure
# behind a --section vector that is vertical at x = -1.  A run that took
# each step for all points before the next would report the later point's
# error.
SPECS["mismatch_then_lambda"] = dict(
    SPECS["inadmissible_k"], grid=3, K={"x,x,y": "0.5*(1 - x)", "x,z,z": "0.5*(1 + x)"})
SPECS["lambda_from_zero"] = dict(SPECS["inadmissible_k"], grid=3,
                                 K={"x,z,z": "0.5*(1 + x)"})

# non-constant phi and xi and an explicit eta, so the frames carry non-zero
# derivatives of g, phi and xi
SPECS["exp_frame"] = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["exp(2*z)"], ["0", "1"], ["0", "0", "exp(2*x)"]],
    "phi": [["0", "-1*exp(-1*z)", "0"], ["exp(z)", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "exp(-1*x)"], "eta": ["0", "0", "exp(x)"], "K": {},
}

R3, FLAT = "zoo:example_r3_negative", "zoo:example_flat_acs:n=1"
JSON = ["--format", "json"]

# (id, argv, sha256 of "<exit code>\n<stdout>"); "@name" is a spec of SPECS
GOLDEN = [
    ("audit-r3", ["audit", R3, "--grid", "2"] + JSON,
     "232bfa4e08eaaca395d7213df6a569a4691ca891e21e24d3db21d39c8470fd42"),
    ("audit-flat-n1", ["audit", FLAT, "--grid", "2"] + JSON,
     "c55a6ff38770685878e1291816cefbd85f4cc58150383daaa207056e882eaf57"),
    ("audit-trivial-lambda-dim3",
     ["audit", "zoo:random:dim=3,seed=1,family=trivial-lambda", "--grid", "2",
      "--seed", "1"] + JSON,
     "9987b9ead18bbbf26acef2bf9ac92f5b35e0a40f71344e6d54ee7539757e2932"),
    ("audit-planar-block-dim3",
     ["audit", "zoo:random:dim=3,seed=2,family=planar-block", "--grid", "2",
      "--seed", "2"] + JSON,
     "943f6fd2b18361259a0410ce9f19437cc85f41ec4eb8abed947160c6067d67d9"),
    ("audit-mixed-dim3",
     ["audit", "zoo:random:dim=3,seed=3,family=mixed", "--grid", "2",
      "--seed", "3"] + JSON,
     "79fea187cf6a0be357040ab6f3d81e1c8df7d0a08cdf2963670a7f95843cec88"),
    ("validate-mixed-dim5",
     ["validate", "zoo:random:dim=5,seed=4,family=mixed", "--grid", "2"] + JSON,
     "abd74820870b958a82271534ed174eeb188f80b881080454c1152375ce1be178"),
    ("audit-warped-connection", ["audit", "@warped_connection", "--seed", "5"] + JSON,
     "726750c9e1020e90954e3c610b5f61be4f2699e748517b731f6ea53dbfecd0c2"),
    ("curvature-warped-connection",
     ["curvature", "@warped_connection", "--seed", "6"] + JSON,
     "440abadf02bf02cb583de6ee51359ddc334338bb2790a4f444ca7d758dc4cd80"),
    ("audit-r3-table", ["audit", R3, "--grid", "2", "--format", "table"],
     "fd95c749c00cc1e09fcb4a2927f2aa507dc71e2068fafe847013f9c4c2f5dd7c"),
    ("audit-inadmissible-k", ["audit", "@inadmissible_k"] + JSON,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("audit-pulled-back-warped", ["audit", "@pulled_back_warped", "--seed", "7"] + JSON,
     "660ae70b74739e4176752b8ffbdd2e6ec07d401ca074356bf050edec8f4c73ce"),
    ("curvature-pulled-back-warped",
     ["curvature", "@pulled_back_warped", "--seed", "8"] + JSON,
     "4fe39d2123d672cd654b647a1d78e329aed23f52fb1aa55f6af673e0339c01f4"),
    ("validate-exp-frame", ["validate", "@exp_frame"] + JSON,
     "a0f372f362b5c74607f4d3becb17b4823939728e25378434c25f9276a9ab3f18"),
    ("audit-exp-frame", ["audit", "@exp_frame", "--seed", "9"] + JSON,
     "5e675437eb1d3a63ed845ae2e333b7be47b169297d0f49b45fddf3bce1824c81"),
    ("curvature-exp-frame", ["curvature", "@exp_frame", "--seed", "10"] + JSON,
     "28ed02ac41197396fae7e386f00690d56f5cdb286edfbc1da521cf95736613e2"),
    # the section sweep beyond dim 3: mixtures of n >= 2 legs at dims 5 and
    # 7, and a --section vector
    ("audit-planar-block-dim5",
     ["audit", "zoo:random:dim=5,seed=4,family=planar-block", "--grid", "2"] + JSON,
     "55bb27f6ea287f0f1500b97b7c9309339ac2900f9e8dd3aeb0c23d645be7d11d"),
    ("audit-mixed-dim7",
     ["audit", "zoo:random:dim=7,seed=3,family=mixed", "--grid", "2"] + JSON,
     "1c22f179b1786e70cbaf6885072281b193d5bc290aa72d4e30ac676c74b97858"),
    ("curvature-flat-n2", ["curvature", "zoo:example_flat_acs:n=2"] + JSON,
     "2417f978ddd69cfe26dfaea21c229ea01339ae6d03fade50fdb2c21ac0b4d5bd"),
    ("curvature-r3-section",
     ["curvature", R3, "--grid", "2", "--section", "1,2,0"] + JSON,
     "f55da494805aaffe75d06527de318ac4036f0989cc2ac3bce52221e7fe68e1b8"),
    # the flags follow the records as {"flag": ...} lines
    ("audit-small-planar-flags", ["audit", "@small_planar"] + JSON,
     "9a825e2df3d7a8d30c9c8105f8657b9638cfe05c2f3acc99abda52ccc5e4e9d8"),
]

# (id, argv, sha256 of "<exit code>\n<stderr>") for runs that fail
GOLDEN_STDERR = [
    ("audit-two-failures", ["audit", "@two_failures", "--seed", "7"] + JSON,
     "6cdbf7b0833b7ebe13ec4ad347523768540d45e07e178b0b697f1f0e89aac2b8"),
    ("curvature-two-failures", ["curvature", "@two_failures", "--seed", "8"] + JSON,
     "6cdbf7b0833b7ebe13ec4ad347523768540d45e07e178b0b697f1f0e89aac2b8"),
    # a degenerate section fails its plane check (exit 1) and a vertical one
    # its horizontality check (exit 2), each at the first point
    ("curvature-r3-degenerate-section",
     ["curvature", R3, "--grid", "2", "--section", "1e-7,0,0"] + JSON,
     "e06ca86ccaa533513a4cd0100ba124b051c1da4af01c0010f462da607a8e9fa6"),
    ("curvature-r3-vertical-section",
     ["curvature", R3, "--grid", "2", "--section", "1,0,x"] + JSON,
     "d8e2041bf401efbcfe7328526dce42f7bcd48086facb5ef1c3cd92d0703b62a5"),
    # the replay of the failing frame pass meets the lambda check first
    # (exit 1) where it runs, and the domain error at x = 1, which names its
    # point, where it does not (exit 2)
    ("audit-thm58-inadmissible-then-log",
     ["audit", "@inadmissible_then_log", "--checks", "thm_5_8"] + JSON,
     "7d115d952a50f123d1ed986fb3454d66b68d3016bbe1c79cd4e4d3d9ef2b0f96"),
    ("curvature-inadmissible-then-log", ["curvature", "@inadmissible_then_log"] + JSON,
     "7d115d952a50f123d1ed986fb3454d66b68d3016bbe1c79cd4e4d3d9ef2b0f96"),
    ("audit-inadmissible-then-log", ["audit", "@inadmissible_then_log"] + JSON,
     "b5690cc8b3da635a6875e482788a2abb7538cc49ab5bfff2731350969705d689"),
    ("audit-prop52-inadmissible-then-log",
     ["audit", "@inadmissible_then_log", "--checks", "prop_5_2"] + JSON,
     "b5690cc8b3da635a6875e482788a2abb7538cc49ab5bfff2731350969705d689"),
    # the error of the first failing point, whatever its step: the quotient
    # mismatch at x = -1 (exit 1), not the lambda failure at x = 0
    ("audit-thm58-mismatch-then-lambda",
     ["audit", "@mismatch_then_lambda", "--checks", "thm_5_8"] + JSON,
     "c8032827dd677c87647cad78f5c008d3fa463be961bcfef9fd5c331e974a9060"),
    ("curvature-mismatch-then-lambda", ["curvature", "@mismatch_then_lambda"] + JSON,
     "c8032827dd677c87647cad78f5c008d3fa463be961bcfef9fd5c331e974a9060"),
    # the vertical section at x = -1 (exit 2), not the lambda failure
    ("curvature-vertical-section-then-lambda",
     ["curvature", "@lambda_from_zero", "--section", "1,0,1-x"] + JSON,
     "81b6202a1b81bce1619cd1b0c06d8d398b47d8816b395499d0777d10890f985b"),
]


def digest(code, out) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def run(capsys, tmp_path, argv):
    argv = list(argv)
    if argv[1].startswith("@"):
        name = argv[1][1:]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SPECS[name]))
        argv[1] = str(path)
    code = main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("label, argv, expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, tmp_path, label, argv, expected):
    code, captured = run(capsys, tmp_path, argv)
    assert digest(code, captured.out) == expected


@pytest.mark.parametrize("label, argv, expected", GOLDEN_STDERR,
                         ids=[g[0] for g in GOLDEN_STDERR])
def test_golden_error(capsys, tmp_path, label, argv, expected):
    code, captured = run(capsys, tmp_path, argv)
    assert captured.out == ""
    assert digest(code, captured.err) == expected


def test_failing_batch_is_replayed_point_by_point(capsys, caplog, tmp_path):
    """The batch fails at its lambda step, first at x = 0; the replay of the
    9 points before it finds the mismatch at x = -1 first."""
    caplog.set_level(logging.DEBUG, logger="acsgeo")
    code, captured = run(capsys, tmp_path, ["curvature", "@mismatch_then_lambda"] + JSON)
    assert (code, captured.out) == (1, "")
    replays = [(r.name, r.levelno, r.getMessage()) for r in caplog.records
               if r.getMessage().startswith("replay:")]
    assert replays == [("acsgeo.curvature", logging.DEBUG,
                        "replay: the 9 points before [0.0, -1.0, -1.0] after K(X, xi) = "
                        "lambda eta(X) xi fails with residual 0.5 at [0.0, -1.0, -1.0]")]


def test_error_naming_the_first_point_is_not_replayed(capsys, tmp_path, monkeypatch):
    """The lambda check fails at the first point and names it: each run
    under ``replay`` runs once on the 27 points, where the theorem 5.8
    audit bisected to that point in 5 runs (27, 13, 6, 3, 1) while only a
    pass of one lane stopped the replay."""
    runs = []
    replay = curvature.replay

    def counted(run, points):
        return replay(lambda pts: runs.append(len(pts)) or run(pts), points)
    monkeypatch.setattr(curvature, "replay", counted)
    code, captured = run(capsys, tmp_path, ["audit", "@inadmissible_k", "--grid", "3"])
    assert (code, captured.err) == (1, "audit failure: K(X, xi) = lambda eta(X) xi fails "
                                       "with residual 1.0 at [-1.0, -1.0, -1.0]\n")
    assert runs == [27] * 2         # the axiom checks and theorem 5.8
