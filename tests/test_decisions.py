"""Decision digests of CLI runs: the exit code, the first stderr line with
floats masked, and per record the check, point, pass flag and whether the
value is non-zero, plus the flags (see ``decision_corpus.py``).  A change
that moves only the last bits of residuals keeps these digests; a change of
any decision breaks one.  ``PINNED`` holds a few runs outside the corpus
ops too; ``decision_digests.json`` holds the digest of every corpus op."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from acsgeo import curvature
from decision_corpus import OPS, decision_of, digest, run

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "decision_digests.json")) as _fh:
    CORPUS = [(op["argv"], op["digest"]) for op in json.load(_fh)]

# (argv, sha256 of the decision); "@name" is a spec of decision_corpus.SPECS
PINNED = [
    (["validate", "zoo:example_r3_negative", "--grid", "2", "--format", "json"],
     "999b1648d96d73ac17918566633e5cfa74d4340b9a4a8b686947e4600c25af9d"),  # exit 0
    (["curvature", "zoo:example_r3_negative", "--grid", "2", "--format", "json"],
     "0fd9ec39ac02956a1bbc7eec7659dda75204ac0b6eafa8b826fedd085f5fd4cf"),  # exit 0
    (["audit", "zoo:example_r3_negative", "--grid", "2", "--format", "json"],
     "019e9a27c61e717ef4748d368e450bdd2473983a4f813d57d2af3cad1c9ddb93"),  # exit 0
    (["audit", "zoo:example_r3_negative", "--grid", "2", "--format", "table"],
     "c29a1a682ae66f209ebe0982f251f9c036225c39080fc845e144bfb52eaee201"),  # exit 0
    (["curvature", "zoo:example_r3_negative", "--grid", "2", "--section", "1,2,0", "--format", "json"],
     "a71ac3debbb1b92e25d035ac4acc4039ddbb2b838981cb522a43fda7eb0f472f"),  # exit 0
    (["audit", "zoo:example_flat_acs:n=1", "--grid", "2", "--format", "json"],
     "c74f9ab04ad205126dfdeab0d1c3ca3d58ea2243d09043c1c226d2f69c52d296"),  # exit 0
    (["curvature", "zoo:example_flat_acs:n=2", "--grid", "2", "--format", "json"],
     "a7302d3634edee08a26760f03f744d1259485af10e7438dc184eff428d749501"),  # exit 0
    (["audit", "zoo:random:dim=3,seed=1,family=trivial-lambda", "--grid", "2", "--seed", "1", "--format", "json"],
     "c74f9ab04ad205126dfdeab0d1c3ca3d58ea2243d09043c1c226d2f69c52d296"),  # exit 0
    (["audit", "zoo:random:dim=3,seed=0,family=planar-block", "--grid", "2", "--format", "json"],
     "b93cd4ad76304ae4a0bcd73b7bdddeb21fb78d32e9e81d46516407764340a963"),  # exit 0
    (["audit", "zoo:random:dim=5,seed=2,family=mixed", "--grid", "2", "--seed", "3", "--format", "json"],
     "d9daa00189c0726752afd78d1ed29c08d7293d24f61ddac8d015c5d686803ee2"),  # exit 0
    (["validate", "zoo:random:dim=5,seed=0,family=mixed", "--grid", "2", "--format", "json"],
     "b1f54f74048d1c2ca1387014ad26e10b591ff09bbc2179e90cb151cd196fc4ff"),  # exit 0
    (["audit", "@warped", "--grid", "2", "--format", "json"],
     "c74f9ab04ad205126dfdeab0d1c3ca3d58ea2243d09043c1c226d2f69c52d296"),  # exit 0
    (["curvature", "@warped", "--grid", "3", "--seed", "4", "--format", "json"],
     "27a47fdcf3b4abdb2893d9f3867cb51ad44894944716312d66ba4f49de2a2ab6"),  # exit 0
    (["audit", "@warped_connection_table", "--grid", "2", "--format", "json"],
     "c74f9ab04ad205126dfdeab0d1c3ca3d58ea2243d09043c1c226d2f69c52d296"),  # exit 0
    (["curvature", "@warped_connection", "--grid", "2", "--format", "json"],
     "0ef56981274bb4680111ae0a5d2942b1348881329c9f7369fbf4c8e01be41324"),  # exit 0
    (["audit", "@warped_connection", "--checks", "prop_5_2", "--format", "json"],
     "22c8baa0f3662f3be07e167c4689bb1cc4fee259375c0f3f513b8faa7d074655"),  # exit 0
    (["audit", "@poly3", "--grid", "2", "--format", "json"],
     "ca040351db8aaf196f6420f0c1cf0fc9e5e6f15605e7300eecef24037a5b1b02"),  # exit 1
    (["validate", "@exp_frame", "--grid", "3", "--format", "json"],
     "1df7ce3c8a5fc8e4cabd7477bdf718bf80bdc3db730a2a65ffc8f5b15d07853b"),  # exit 0
    (["audit", "@exp_frame", "--grid", "2", "--format", "json"],
     "d9d995e393b38fa03f7628a454df65ebd851c2c40dbc3e563d932b4ab4ccb339"),  # exit 0
    (["audit", "@pulled_back_warped", "--grid", "2", "--format", "json"],
     "4ecb4defbcfd492079ec3d5235755d5a47ccb35c7452e5b20354678c6e7f5ac5"),  # exit 0
    (["curvature", "@pulled_mixed3", "--grid", "2", "--format", "json"],
     "19eeca85fc85ff890b452014b24b190f24b2c1aaad61f8aeb2528dbe0765f9e3"),  # exit 0
    (["audit", "@pulled_planar5", "--grid", "1", "--format", "json"],
     "334e7b08172128a8200e19dce562071e1e181604a5243228854e356a55787f82"),  # exit 0
    (["audit", "@pulled_warped", "--grid", "2", "--format", "json"],
     "8a4b31352fdc153ed867d8d7a198e461d1592d0f2de644e946ef5ce69198015e"),  # exit 0
    (["audit", "@inadmissible_k", "--grid", "2", "--format", "json"],
     "ca040351db8aaf196f6420f0c1cf0fc9e5e6f15605e7300eecef24037a5b1b02"),  # exit 1
    (["audit", "@two_failures", "--grid", "3", "--format", "json"],
     "cba66624d0b46100db21be7460eec2d1704bf363c052dedb48ac800dcba90380"),  # exit 1
    (["curvature", "@inadmissible_then_log", "--grid", "3", "--format", "json"],
     "ca040351db8aaf196f6420f0c1cf0fc9e5e6f15605e7300eecef24037a5b1b02"),  # exit 1
    (["audit", "@mismatch_then_lambda", "--checks", "thm_5_8", "--format", "json"],
     "1f99d5db6b00a0c6ca30e45fd5d4f680b45888c75d3bffc13cacb2d50f6ad3f8"),  # exit 1
    (["audit", "@small_planar", "--grid", "2", "--format", "json"],
     "cc7e835b0ba23ca4516dad7fdf30d072dfa8901cc13e2af8c41aa301ecdac6c8"),  # exit 1
    (["validate", "@indefinite", "--grid", "2", "--format", "json"],
     "9b2b3bc7da5326f6e52377a1626616e8f3d981aca960674b8fb020d67f21a05e"),  # exit 1
    (["curvature", "@lambda_from_zero", "--section", "1,0,1-x", "--format", "json"],
     "441eac85e9a170db636a354dd5d0bb371203a69d5de31e234c03c91cb8554cb5"),  # exit 2
    (["validate", "@warped", "--grid", "0", "--format", "json"],
     "876d75e061fa7b7957c617552d7a649f524a9798c1281a9587258002561ac3d4"),  # exit 2
]


@pytest.mark.parametrize("argv, expected", PINNED,
                         ids=["-".join(argv[:2]) + f"-{i}" for i, (argv, _) in enumerate(PINNED)])
def test_decision_digest(argv, expected, tmp_path):
    assert digest(decision_of(argv, str(tmp_path))) == expected


def test_digests_cover_the_corpus():
    assert [argv for argv, _ in CORPUS] == OPS


@pytest.mark.parametrize("argv, expected", CORPUS,
                         ids=[f"{i}-" + "-".join(argv[:2]) for i, (argv, _) in enumerate(CORPUS)])
def test_corpus_decision_digest(argv, expected, tmp_path):
    assert digest(decision_of(argv, str(tmp_path))) == expected


def test_every_error_replay_meets_names_one_of_its_points(monkeypatch, tmp_path):
    """The precondition of ``curvature.replay``'s prefix rule: over the
    corpus, every error that a run under it raises keeps, as its ``lane``,
    one of the points of that run."""
    met = []
    replay = curvature.replay

    def observed(run, points):
        def recorded(pts):
            try:
                return run(pts)
            except Exception as exc:
                met.append((getattr(exc, "lane", None), np.asarray(pts, dtype=float).tolist()))
                raise
        return replay(recorded, points)
    monkeypatch.setattr(curvature, "replay", observed)
    for argv in OPS:
        run(argv, str(tmp_path))
    assert len(met) > 30
    assert [(lane, points) for lane, points in met if lane not in points] == []


def test_compare_exits_one_on_a_decision_change(tmp_path):
    """``compare`` of a one-op corpus against changed copies exits 1 on a
    changed decision and on a float that turns non-finite: the decision
    records only whether a value is non-zero, so -1 -> inf keeps it.  A
    finite change of a value exits 0."""
    argv = ["validate", "zoo:example_r3_negative", "--grid", "1"]

    def corpus(passed=True, residual=0.0, value=-1.0):
        decision = {"exit": 0, "stderr": "", "records": [["k_phi", [0.0] * 3, passed, True]],
                    "flags": []}
        floats = {"stderr": "", "residuals": [residual], "values": [value]}
        return [{"argv": argv, "decision": decision, "floats": floats}]
    paths = []
    for n, ops in enumerate([corpus(), corpus(), corpus(passed=False), corpus(value=-1.0000001),
                             corpus(value=float("inf")), corpus(value=float("nan")),
                             corpus(residual=float("-inf"))]):
        paths.append(tmp_path / f"corpus{n}.json")
        paths[-1].write_text(json.dumps(ops))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "decision_corpus.py")
    codes = [subprocess.run([sys.executable, script, "compare", str(paths[0]), str(path)],
                            capture_output=True).returncode for path in paths[1:]]
    assert codes == [0, 1, 0, 1, 1, 1]
