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
from acsgeo.expressions import Jet, primal, tangent
from acsgeo.metric import field_jet

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
