"""Building an input parses each distinct expression once: entries with
equal text share one ScalarField, no parse outlives the input, and a
malformed entry fails with the parse error of its own text, named by the
entry."""

import collections
import json

import pytest

from acsgeo import metric
from acsgeo.cli import main, resolve_input
from acsgeo.expressions import ExprSyntaxError, parse_expression
from acsgeo.specfile import SpecFormatError

ZOO = "zoo:random:dim=7,seed=0,family={}"

SPEC = {
    "coordinates": ["x", "y", "z"], "grid": 2,
    "metric_lower": [["1 + 0.1*x^2"], ["0", "1 + 0.1*x^2"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "eta": ["0", "0", "1"],
    "K": {"z,z,z": "0.5 + 0.3*x*y", "x,z,z": "0", "y,z,z": "0.5 + 0.3*x*y"},
}


@pytest.fixture
def parses(monkeypatch):
    """The texts parsed while building inputs, in order."""
    texts = []

    def counting(text, coords):
        texts.append(text)
        return parse(text, coords)

    parse = metric.parse_expression
    monkeypatch.setattr(metric, "parse_expression", counting)
    return texts


def spec_strings(spec):
    """Every expression text of a spec, the zeros its sparse K table leaves."""
    def flat(value):
        return [value] if isinstance(value, str) else [s for v in value for s in flat(v)]
    texts = flat(spec["metric_lower"]) + flat(spec["phi"]) + flat(spec["xi"])
    texts += flat(spec.get("eta", [])) + list(spec["K"].values())
    return set(texts) | ({"0"} if len(spec["K"]) < len(spec["coordinates"]) ** 3 else set())


def fields_of(m):
    k = m.difference.fields
    return [f for row in m.metric.components for f in row] + \
        [f for row in m.phi for f in row] + list(m.xi) + list(m.eta or []) + \
        [f for plane in k for row in plane for f in row]


def assert_shared(m):
    """Fields with equal text are one object, across all the tables."""
    by_text = collections.defaultdict(set)
    for f in fields_of(m):
        by_text[f.to_string()].add(id(f))
    assert all(len(ids) == 1 for ids in by_text.values()), by_text


@pytest.mark.parametrize("family,distinct", [("trivial-lambda", 4), ("mixed", 10)])
def test_zoo_input_parses_each_distinct_text_once(parses, family, distinct):
    m = resolve_input(ZOO.format(family))
    assert len(parses) == len(set(parses)) == distinct
    assert_shared(m)
    k = m.difference.fields
    assert k[0][2][4] is k[6][5][4] is m.phi[0][0] is m.metric.components[1][0]
    # a second input builds its own fields
    first = list(parses)
    again = resolve_input(ZOO.format(family))
    assert parses == first + first
    assert again.difference.fields[0][2][4] is not k[0][2][4]


def test_spec_file_parses_each_distinct_text_once(parses, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    m = resolve_input(str(path))
    assert len(parses) == len(set(parses))
    assert set(parses) == spec_strings(SPEC)
    assert_shared(m)
    k = m.difference.fields
    assert k[2][2][2] is k[1][2][2] and k[0][2][2] is k[0][0][0] is m.phi[0][0]
    assert m.metric.components[0][0] is m.metric.components[1][1]
    resolve_input(str(path))
    assert len(parses) == 2 * len(spec_strings(SPEC))


@pytest.mark.parametrize("where, entry", [
    ("metric", "metric_lower[2][1]"), ("K", "K['x,x,x']"), ("phi", "phi[2][2]")],
    ids=["metric", "K", "phi"])
def test_malformed_entry_raises_its_own_parse_error(capsys, tmp_path, where, entry):
    """The first malformed entry, in parse order (the metric, K, phi) and
    row-major within a table, is named: a K entry by its key as the spec
    writes it, the first in index order, not in the order of the keys."""
    bad = "1 + *x"
    spec = json.loads(json.dumps(SPEC))
    if where == "metric":
        spec["metric_lower"][2] = ["0", bad, bad]
    elif where == "K":
        spec["K"]["y,y,y"] = spec["K"]["x,x,x"] = bad
    spec["phi"][2][2] = bad             # parsed after the metric and K
    with pytest.raises(ExprSyntaxError) as own:
        parse_expression(bad, spec["coordinates"])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SpecFormatError) as built:
        resolve_input(str(path))
    assert str(built.value) == f"{entry}: {own.value}"
    assert built.value.__cause__.position == own.value.position
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {entry}: {own.value}\n"
