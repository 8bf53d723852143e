"""Golden outputs: the sha256 of (exit code, stdout) of a fixed set of CLI
runs.  Any refactor of the evaluation engine must leave every residual,
flag and exit code byte-identical; a deliberate change of output updates
the pinned digest together with a note of why it changed."""

import hashlib
import json

import pytest

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

# a linear pull-back of a warped chart: every point swaps rows when
# inv_generic pivots, and the metric entries are transcendental
PB = "exp(0.1*((u + 3*v)^2 + v^2))"
SPECS["pulled_back_warped"] = {
    "coordinates": ["u", "v", "w"], "grid": 4,
    "metric_lower": [[PB], [f"3*{PB}", f"10*{PB}"], ["0", "0", "1"]],
    "phi": [["-3", "-10", "0"], ["1", "3", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}
# singular at x = -1 (the first points) and a log domain error at x = 1:
# evaluated point by point, the singularity surfaces first
SPECS["two_failures"] = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["x + 1 + 0*log(0.5 - x)"], ["0", "1"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}

R3, FLAT = "zoo:example_r3_negative", "zoo:example_flat_acs:n=1"
JSON = ["--format", "json"]

# (id, argv, sha256 of "<exit code>\n<stdout>"); "@name" is a spec of SPECS
GOLDEN = [
    ("audit-r3", ["audit", R3, "--grid", "2"] + JSON,
     "98dc618cdf7906e399c415747bf4470b270ed8990891a319e08046af8109239e"),
    ("audit-flat-n1", ["audit", FLAT, "--grid", "2"] + JSON,
     "c55a6ff38770685878e1291816cefbd85f4cc58150383daaa207056e882eaf57"),
    ("audit-trivial-lambda-dim3",
     ["audit", "zoo:random:dim=3,seed=1,family=trivial-lambda", "--grid", "2",
      "--seed", "1"] + JSON,
     "9987b9ead18bbbf26acef2bf9ac92f5b35e0a40f71344e6d54ee7539757e2932"),
    ("audit-planar-block-dim3",
     ["audit", "zoo:random:dim=3,seed=2,family=planar-block", "--grid", "2",
      "--seed", "2"] + JSON,
     "ba9c2816db9f011fac0046527a1cb80d89bd214e406e51e7669ca37b395e8ff8"),
    ("audit-mixed-dim3",
     ["audit", "zoo:random:dim=3,seed=3,family=mixed", "--grid", "2",
      "--seed", "3"] + JSON,
     "0b709d66b27810d00a1263d5cd529ceb74d74f83d009aff24df93c3452163e46"),
    ("validate-mixed-dim5",
     ["validate", "zoo:random:dim=5,seed=4,family=mixed", "--grid", "2"] + JSON,
     "abd74820870b958a82271534ed174eeb188f80b881080454c1152375ce1be178"),
    ("audit-warped-connection", ["audit", "@warped_connection", "--seed", "5"] + JSON,
     "deb2d842244c566c4ddc656067f3f8e594019242848d19f475c571dbd21ec7ab"),
    ("curvature-warped-connection",
     ["curvature", "@warped_connection", "--seed", "6"] + JSON,
     "34e1438e0a3241a2e4a495bf2406e2c45b898b190389cf37af081284a6579867"),
    ("audit-r3-table", ["audit", R3, "--grid", "2", "--format", "table"],
     "30349ae26507a5dc82e6ef9a214949c6cf444a0d687ea00b47e9b4aa1db3ddd2"),
    ("audit-inadmissible-k", ["audit", "@inadmissible_k"] + JSON,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("audit-pulled-back-warped", ["audit", "@pulled_back_warped", "--seed", "7"] + JSON,
     "aeca067865aeee5a1bdb7415560082f0ea6af28d9820ab74bd999d48900856c6"),
    ("curvature-pulled-back-warped",
     ["curvature", "@pulled_back_warped", "--seed", "8"] + JSON,
     "0a2098a81c00dd31fb8de00ba3265a64c6eee4be389331e6a5a8a9197ea037d8"),
]

# (id, argv, sha256 of "<exit code>\n<stderr>") for runs that fail
GOLDEN_STDERR = [
    ("audit-two-failures", ["audit", "@two_failures", "--seed", "7"] + JSON,
     "07f9c9424c5b79a6f8e90c0f2fd07a01cb99a5d3b57b5d6cc9fddfeaab4cddb4"),
    ("curvature-two-failures", ["curvature", "@two_failures", "--seed", "8"] + JSON,
     "07f9c9424c5b79a6f8e90c0f2fd07a01cb99a5d3b57b5d6cc9fddfeaab4cddb4"),
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
