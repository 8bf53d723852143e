"""Parser and dual-number differentiation tests, including the central
finite-difference cross-check of the forward-mode derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import (Dual, EvalDomainError, ExprSyntaxError, NonFiniteError,
                    UnknownIdentifierError, eval_with_derivative,
                    parse_expression)
from acsgeo.expressions import _FUNCTIONS, MAX_DEPTH, Jet, primal, tangent
from acsgeo.metric import field_jet
from acsgeo.specfile import manifold_from_dict, manifold_to_dict

import dual_reference as ref
from conftest import central_difference


# ---------------------------------------------------------------------------
# parsing and evaluation


def test_basic_evaluation():
    f = parse_expression("x^2 + sin(y)", ["x", "y", "z"])
    assert f([2.0, 0.0, 5.0]) == pytest.approx(4.0, abs=1e-15)


def test_incomplete_expression_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("x +", ["x"])
    assert exc.value.position == 3


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("x + w", ["x", "y"])


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse_expression("   ", ["x"])


@pytest.mark.parametrize("text,point,expected", [
    ("2*x^2", [3.0], 18.0),            # ^ binds tighter than *
    ("-x^2", [3.0], -9.0),             # unary minus applies after ^
    ("2 - 3 - 4", [0.0], -5.0),        # left associativity
    ("12/3/2", [0.0], 2.0),
    ("x^-1", [2.0], 0.5),              # negative integer exponents
    ("(x + 1)^3", [1.0], 8.0),
    ("exp(log(x))", [5.0], 5.0),
    ("sqrt(x^2)", [3.0], 3.0),
    ("-1/2", [0.0], -0.5),
])
def test_grammar_cases(text, point, expected):
    f = parse_expression(text, ["x"])
    assert f(point) == pytest.approx(expected, abs=1e-12)


def test_fractional_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x^2.5", ["x"])


@pytest.mark.parametrize("exponent, position", [
    ("65", 2), ("-65", 3), ("100", 2), ("1000000000", 2), ("9" * 5000, 2)],
    ids=["65", "-65", "100", "1e9", "5000 digits"])
def test_exponent_beyond_64_rejected_at_its_position(exponent, position):
    """A walk of x^n makes |n| - 1 products, and int() of a long digit string
    raises; both are bounded at parse time, before int() sees the digits."""
    with pytest.raises(ExprSyntaxError, match="beyond 64") as exc:
        parse_expression(f"x^{exponent}", ["x"])
    assert exc.value.position == position


def test_exponent_bound_is_inclusive_and_ignores_leading_zeros():
    assert parse_expression("x^64", ["x"])([1.0]) == 1.0
    assert parse_expression("x^-64", ["x"])([2.0]) == 2.0 ** -64
    assert parse_expression("x^" + "0" * 5000 + "2", ["x"]).to_string() == "x^2"


D = MAX_DEPTH
# (text at the bound, text one level past it, the position of the error)
DEEP = {
    "parentheses": ("(" * D + "x" + ")" * D, "(" * (D + 1) + "x" + ")" * (D + 1), D),
    "calls": ("sin(" * D + "x" + ")" * D, "sin(" * (D + 1) + "x" + ")" * (D + 1), 4 * D + 3),
    "unary minus": ("-" * D + "x", "-" * (D + 1) + "x", D),
    "sum": ("+".join(["x"] * (D + 1)), "+".join(["x"] * (D + 2)), 2 * D + 1),
    "product": ("*".join(["x"] * (D + 1)), "*".join(["x"] * (D + 2)), 2 * D + 1),
    "powers": ("(" * (D - 1) + "x" + "^1)" * (D - 1) + "^1", "(" * D + "x" + "^1)" * D + "^1",
               4 * D + 2),
    "negated sum": ("-(" + "+".join(["x"] * D) + ")", "-(" + "+".join(["x"] * (D + 1)) + ")",
                    0),
    "parenthesised sum": ("(" * D + "+".join(["x"] * (D + 1)) + ")" * D,
                          "(" * D + "+".join(["x"] * (D + 2)) + ")" * D, 3 * D + 1),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_expression_at_the_depth_bound_runs_every_walk(shape):
    """An expression nested MAX_DEPTH deep parses and goes through every walk
    of its tree within the default recursion limit: the Jet walk at order 2,
    to_string and a parse of it, the export of a spec, and
    the independent reference walk."""
    coords = ["x", "y", "z"]
    f = parse_expression(DEEP[shape][0], coords)
    with np.errstate(all="ignore"):
        value, grad, hess = field_jet([f], [np.array([0.25])] * 3, 2)
    assert np.isfinite(value).all() and np.isfinite(grad).all() and np.isfinite(hess).all()
    assert f.reads == (0,)
    text = f.to_string()
    assert parse_expression(text, coords).to_string() == text
    spec = {"coordinates": coords, "grid": 1,
            "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"], "K": {"z,z,z": DEEP[shape][0]}}
    assert manifold_to_dict(manifold_from_dict(spec))["K"]["z,z,z"] == text
    dual = ref.evaluate(f.body, [ref.Dual(0.25, 1.0), ref.Dual(0.25, 0.0), ref.Dual(0.25, 0.0)])
    assert ref.primal(dual) == value[0, 0]


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_expression_past_the_depth_bound_is_a_syntax_error(shape):
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH}") as exc:
        parse_expression(DEEP[shape][1], ["x", "y", "z"])
    assert exc.value.position == DEEP[shape][2]


def test_domain_errors():
    f = parse_expression("log(x)", ["x"])
    with pytest.raises(EvalDomainError):
        f([-1.0])
    g = parse_expression("sqrt(x)", ["x"])
    with pytest.raises(EvalDomainError):
        g([-4.0])
    # a denominator that vanishes, as a float and as a Dual
    h = parse_expression("x / (y - 1)", ["x", "y"])
    for evaluate in (lambda: h([2.0, 1.0]), lambda: eval_with_derivative(h, [2.0, 1.0], 1)):
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            evaluate()


def test_negative_power_of_zero_is_a_domain_error():
    f = parse_expression("1 + x^-2", ["x"])
    assert f([2.0]) == 1.25
    with pytest.raises(EvalDomainError):
        f([0.0])
    with pytest.raises(EvalDomainError):
        eval_with_derivative(f, [0.0], 0)


def test_exp_overflow_is_an_expression_error():
    f = parse_expression("exp(1000*x)", ["x"])
    assert f([-1.0]) == 0.0
    with pytest.raises(NonFiniteError):
        f([1.0])
    with pytest.raises(NonFiniteError):
        eval_with_derivative(f, [1.0], 0)


@pytest.mark.parametrize("text", ["sin(1e200*1e200*x)", "cos(1e200*1e200*x)"])
def test_sin_cos_of_infinity_is_an_expression_error(text):
    f = parse_expression(text, ["x"])
    with pytest.raises(NonFiniteError, match="is undefined"):
        f([1.0])
    with pytest.raises(NonFiniteError):
        eval_with_derivative(f, [-1.0], 0)


def test_round_trip_stability():
    texts = ["x^2 + sin(y)", "-(x + y)*z", "1 - x - y", "x/(y + 2)",
             "2*x^3 - 0.5*y^2", "cos(x)*sin(y) + exp(z)"]
    pts = [np.array(p) for p in ([0.3, -0.7, 1.1], [1.0, 2.0, -0.5])]
    for text in texts:
        f = parse_expression(text, ["x", "y", "z"])
        g = parse_expression(f.to_string(), ["x", "y", "z"])
        assert g.to_string() == parse_expression(g.to_string(), ["x", "y", "z"]).to_string()
        for p in pts:
            assert g(p) == pytest.approx(f(p), abs=1e-15)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_sin_at_zero():
    f = parse_expression("sin(x)", ["x"])
    val, der = eval_with_derivative(f, [0.0], 0)
    assert val == 0.0
    assert der == 1.0


def test_derivative_mixed():
    f = parse_expression("x^2 + sin(y)", ["x", "y"])
    val, der = eval_with_derivative(f, [2.0, 0.0], 1)
    assert val == pytest.approx(4.0, abs=1e-15)
    assert der == pytest.approx(1.0, abs=1e-15)


def test_nested_dual_second_derivative():
    # d^2/dx^2 of x^3 at x = 2 is 12, obtained by seeding a Dual of Duals
    f = parse_expression("x^3", ["x"])
    x = Dual(Dual(2.0, 1.0), Dual(1.0, 0.0))
    out = f.eval_scalar([x])
    assert primal(primal(out)) == pytest.approx(8.0)
    assert primal(tangent(out)) == pytest.approx(12.0)   # first derivative
    assert tangent(tangent(out)) == pytest.approx(12.0)  # second derivative


JET_TEXTS = ["log(x*y + 2)", "sqrt(x^2 + y^2 + 0.1)", "x / (y - 3)", "(x + y*z + 3)^-3",
             "log(sqrt(z + 2)) / (x - 2)", "sqrt(exp(x) + 1)^3", "1 / log(2 + x*z)",
             "(y - 0.5)^4 / sqrt(1 + x^2)", "-log(3 - x) * z^2 + 1/(y + 2)"]


def test_eval_with_derivative_is_a_one_lane_jet_walk():
    """Seeded Duals run the Jet rules every verb runs: value and partial
    derivative equal ``field_jet`` of one lane bit for bit."""
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (100, 3))
    for text in JET_TEXTS:
        f = parse_expression(text, ["x", "y", "z"])
        for p in points:
            value, grad = field_jet([f], [np.array([c]) for c in p], 1)
            for j in range(3):
                got = eval_with_derivative(f, list(p), j)
                assert np.float64(got.value).tobytes() == value[0, 0].tobytes(), (text, p)
                assert np.float64(got.derivative).tobytes() == grad[0, j, 0].tobytes(), \
                    (text, p, j)


# a fixed table per derivative rule: each expression needs the rule's f'
# and f'' at the points below, where neither vanishes
RULE_TABLE = {
    "sin": ["sin(x*y + z)", "y*sin(x)^2", "sin(2*x - z) * (2 + y)"],
    "cos": ["cos(x*y + z)", "x*cos(y - z^2)", "cos(x)^2 * y"],
    "exp": ["exp(x*y - z)", "y*exp(0.5*x^2)", "exp(-1*x) * z"],
    "log": ["log(1.5 + x*y + z^2)", "z*log(2 + x)", "log(3 - y)^2"],
    "sqrt": ["sqrt(2 + x*y + z)", "y*sqrt(3 + x^2)", "sqrt(4 - z)^3"],
    "division": ["x / (2 + y*z)", "(x + y) / (3 + z^2)", "1 / (x + 2) - y / (z - 3)"],
    "negative power": ["(2 + x*y)^-1", "y*(3 + x + z)^-2", "(x - 2)^-3"],
}
RULE_POINTS = [(0.3, -0.7, 0.5), (-1.1, 0.4, 0.9), (0.8, 1.3, -0.6)]


@pytest.mark.parametrize("text", [t for texts in RULE_TABLE.values() for t in texts])
def test_derivative_rules_match_the_reference(text):
    """Value, gradient and Hessian of an order-2 ``field_jet`` against
    ``tests/dual_reference.py`` (own rules, arithmetic and walk): plain,
    singly and doubly seeded walks at fixed points."""
    f = parse_expression(text, ["x", "y", "z"])
    for p in RULE_POINTS:
        with np.errstate(all="ignore"):
            value, grad, hess = field_jet([f], [np.array([c]) for c in p], 2)
        assert value[0, 0] == pytest.approx(ref.evaluate(f.body, list(p)), rel=1e-13)
        for m in range(3):
            out = ref.evaluate(f.body, [ref.Dual(c, float(n == m)) for n, c in enumerate(p)])
            assert grad[0, m, 0] == pytest.approx(ref.tangent(out), rel=1e-12, abs=1e-12)
            for i in range(3):
                out = ref.evaluate(f.body, [ref.Dual(ref.Dual(c, float(n == m)), float(n == i))
                                            for n, c in enumerate(p)])
                assert hess[0, i, m, 0] == pytest.approx(ref.tangent(ref.tangent(out)),
                                                         rel=1e-12, abs=1e-12), (text, p, i, m)


def test_dual_is_a_first_order_jet():
    """Arithmetic on a Dual is Jet arithmetic; outside an expression a zero
    divisor is Python's ZeroDivisionError, inside one an EvalDomainError."""
    x = Dual(2.0, 1.0)
    out = x * x + 1
    assert type(out) is Jet and (primal(out), tangent(out)) == (5.0, 4.0)
    with pytest.raises(ZeroDivisionError):
        x / 0.0


def test_derivative_index_out_of_range():
    f = parse_expression("x", ["x"])
    with pytest.raises(IndexError):
        eval_with_derivative(f, [1.0], 3)


# hypothesis: random polynomial fields, dual derivative vs central difference


@st.composite
def polynomials(draw):
    """Random trivariate polynomial of degree <= 4 as an expression string."""
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = []
    for _ in range(n_terms):
        coef = draw(st.floats(min_value=-3.0, max_value=3.0,
                              allow_nan=False, allow_infinity=False))
        exps = draw(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(0, 4)).filter(lambda e: sum(e) <= 4))
        factors = [f"{coef:.6f}"]
        for name, e in zip(("x", "y", "z"), exps):
            if e:
                factors.append(f"{name}^{e}" if e > 1 else name)
        terms.append("*".join(factors))
    return " + ".join(terms)


@settings(max_examples=120, deadline=None)
@given(text=polynomials(),
       point=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)]),
       j=st.integers(0, 2))
def test_dual_matches_finite_difference(text, point, j):
    f = parse_expression(text, ["x", "y", "z"])
    val, der = eval_with_derivative(f, list(point), j)
    fd = central_difference(lambda p: f(list(p)), list(point), j, h=1e-5)
    assert math.isfinite(der)
    assert der == pytest.approx(fd, abs=1e-6, rel=1e-6)
    assert val == pytest.approx(f(list(point)), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(text=polynomials(), point=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_round_trip_preserves_values(text, point):
    f = parse_expression(text, ["x", "y", "z"])
    g = parse_expression(f.to_string(), ["x", "y", "z"])
    assert g(list(point)) == pytest.approx(f(list(point)), abs=1e-12, rel=1e-12)


# hypothesis: the coordinates a parse records as read

READ_COORDS = ["x", "y", "z", "w"]


def _joined(template, *parts):
    """(text, read names) of the texts of ``parts`` put into ``template``."""
    return template.format(*(text for text, _ in parts)), frozenset().union(
        *(names for _, names in parts))


def grammar_texts():
    """(expression text, names of the coordinates it holds) over the whole
    grammar: numbers, coordinates and 0*coordinate, function calls, unary
    minus, integer powers, nested binary operators and parentheses."""
    atoms = st.one_of(
        st.sampled_from(["0", "1", "2.5", ".5", "1e-3", "3E+2"]).map(lambda t: (t, frozenset())),
        st.sampled_from(READ_COORDS).map(lambda c: (c, frozenset([c]))),
        st.sampled_from(READ_COORDS).map(lambda c: (f"0*{c}", frozenset([c]))))

    def extend(inner):
        return st.one_of(
            st.builds(lambda f, a: _joined(f + "({})", a), st.sampled_from(sorted(_FUNCTIONS)), inner),
            inner.map(lambda a: _joined("-{}", a)),
            st.builds(lambda a, n: _joined("({})^" + str(n), a), inner, st.integers(-3, 3)),
            st.builds(lambda a, op, b: _joined("{} " + op + " {}", a, b),
                      inner, st.sampled_from("+-*/"), inner),
            inner.map(lambda a: _joined("({})", a)))
    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(case=grammar_texts())
def test_reads_match_an_independent_walk(case):
    """``ScalarField.reads``, recorded by the parser, is the sorted indices of
    the coordinates the text names and of the Vars of its tree, found by a
    walk written here (``dual_reference.reads``)."""
    text, names = case
    f = parse_expression(text, READ_COORDS)
    expected = tuple(sorted(READ_COORDS.index(c) for c in names))
    assert f.reads == tuple(sorted(ref.reads(f.body))) == expected
