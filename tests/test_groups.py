"""The runs of ``cli.GROUPS``: the groups of one run print one block, point
by point, so the runs of ``audit``, each run alone, print slices of its
lines, and a group alone prints its own records of its run's block."""

import json
from collections import Counter
from itertools import groupby

import pytest

from acsgeo import cli

REFS = ["zoo:example_flat_acs:n=1", "zoo:example_r3_negative",
        "zoo:random:dim=5,seed=1,family=mixed"]
# the groups of each run of audit, in table order
RUNS = [names for names in ([g.name for g in rows if "audit" in g.verbs]
                            for _, rows in groupby(cli.GROUPS, key=lambda g: g.run)) if names]


def audit(capsys, ref, checks=None):
    argv = ["audit", ref, "--grid", "2", "--format", "json"]
    code = cli.main(argv + (["--checks", ",".join(checks)] if checks else []))
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), (checks, err)
    return out


@pytest.mark.parametrize("ref", REFS)
def test_the_runs_make_up_the_audit(capsys, ref):
    """Each run alone prints a slice of the full audit's lines; the slices,
    in table order, are the full output byte for byte."""
    full = audit(capsys, ref)
    slices = [audit(capsys, ref, groups) for groups in RUNS]
    assert full and "".join(slices) == full


@pytest.mark.parametrize("groups", RUNS, ids=["+".join(groups) for groups in RUNS])
@pytest.mark.parametrize("ref", REFS)
def test_a_group_alone_prints_its_records_of_its_run(capsys, ref, groups):
    """The run's block is point-major, each point's lines together.  The
    lines of each group of the run alone are, in their order, lines of the
    block, and together they are every line of it once."""
    block = audit(capsys, ref, groups).splitlines()
    points = [k for k, _ in groupby(json.dumps(json.loads(line)["point"]) for line in block)]
    assert len(points) == len(set(points))
    alone = [audit(capsys, ref, [group]).splitlines() for group in groups]
    for lines in alone:
        rest = iter(block)
        assert all(line in rest for line in lines)      # a subsequence of the block
    assert Counter(line for lines in alone for line in lines) == Counter(block)
