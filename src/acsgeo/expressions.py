"""Scalar expression fields on a coordinate chart, with exact forward-mode
differentiation.

Expressions are parsed from strings over declared coordinate names and a
small set of operators and elementary functions.  Evaluation is generic in
the scalar type: floats give values, and ``Jet``s give the value, the
gradient and, at order 2, the Hessian in one walk of the tree.  A ``Dual``
is a first-order ``Jet`` in one seeded direction, so there is one
derivative engine for every verb, ``eval_with_derivative`` and nested
``Dual`` seeding.

A scalar may also be a ``(P,)`` float array with one lane per sample point,
bare or as the parts of a ``Jet``.  Every lane then goes through the same
IEEE operations (``sin``/``cos``/``exp``/``log``/``sqrt`` call
:mod:`math` lane by lane), so a lane's result does not depend on the other
lanes.  Domain checks look at values only and raise when any lane fails.
Like Python floats, lanes overflow to inf silently: callers that evaluate
lanes do so under ``np.errstate(all="ignore")``.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Sequence

import numpy as np


class ExpressionError(Exception):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name, position=None):
        msg = f"unknown identifier '{name}'"
        if position is not None:
            msg += f" (at position {position})"
        super().__init__(msg)
        self.name = name


class EvalDomainError(ExpressionError):
    """log/sqrt of a non-positive argument, or division by zero."""


class NonFiniteError(ExpressionError):
    """Evaluation produced inf or nan."""


# ---------------------------------------------------------------------------
# lanes


def any_lane(cond) -> bool:
    """A comparison of floats or of lane arrays, true when it holds anywhere."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def first_lane(x, cond):
    """The value of ``x`` at the first lane where ``cond`` holds (``x`` itself
    for a float), for error messages."""
    return x[cond][0] if isinstance(cond, np.ndarray) else x


def _libm(fn, x):
    """``fn`` from :mod:`math` of a float, or of every lane of an array so that
    lanes get the libm results a float gets; its range and domain errors
    (overflow, ``sin`` of inf) raise NonFiniteError."""
    if isinstance(x, np.ndarray):
        return np.array([_libm(fn, v) for v in x.tolist()])
    try:
        return fn(x)
    except OverflowError:
        raise NonFiniteError(f"{fn.__name__}({x}) overflows") from None
    except ValueError:
        raise NonFiniteError(f"{fn.__name__}({x}) is undefined") from None


# ---------------------------------------------------------------------------
# Taylor jets


class Jet:
    """Truncated Taylor expansion of a scalar over P lanes (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): the value ``val``
    (P,), the gradient ``grad`` (n, P) and the Hessian ``hess`` (n, n, P),
    or None for a first-order jet.  Plain floats and lane arrays act as
    constants; every jet of one walk has the same order."""

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None   # ndarray op Jet defers to Jet's reflected op

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    @classmethod
    def variables(cls, coords, order: int):
        """The jets of the coordinates themselves: unit gradients, zero
        Hessians at order 2."""
        n, lanes = len(coords), len(coords[0])
        hess = np.zeros((n, n, lanes)) if order == 2 else None
        jets = []
        for i, c in enumerate(coords):
            grad = np.zeros((n, lanes))
            grad[i] = 1.0
            jets.append(cls(c, grad, hess))
        return jets

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val + other, self.grad, self.hess)
        return Jet(self.val + other.val, self.grad + other.grad,
                   None if self.hess is None else self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, self.grad * other,
                       None if self.hess is None else self.hess * other)
        hess = None if self.hess is None else (
            self.hess * other.val + self.val * other.hess + _sym_outer(self.grad, other.grad))
        return Jet(self.val * other.val, self.grad * other.val + self.val * other.grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val / other, self.grad / other,
                       None if self.hess is None else self.hess / other)
        return other._divide(self.val, self.grad, self.hess)

    def __rtruediv__(self, other):
        return self._divide(other, 0.0, 0.0)

    def _divide(self, val, grad, hess):
        """The jet (val, grad, hess) / self: v = val / b, differentiating
        v b = val once and twice."""
        v = val / self.val
        dv = (grad - v * self.grad) / self.val
        hv = None if self.hess is None else (
            hess - v * self.hess - _sym_outer(dv, self.grad)) / self.val
        return Jet(v, dv, hv)

    def chain(self, f0, f1, f2):
        """f(self) from f, f' and f'' at the value."""
        hess = None if self.hess is None else (
            f1 * self.hess + f2 * _outer(self.grad, self.grad))
        return Jet(f0, f1 * self.grad, hess)


def _outer(a, b):
    """a (x) b of two gradients (n, P), lane by lane: (n, n, P)."""
    return a[:, None] * b[None, :]


def _sym_outer(a, b):
    """a (x) b + b (x) a of two gradients (n, P), lane by lane."""
    cross = _outer(a, b)
    return cross + cross.transpose(1, 0, 2)


class Dual(Jet):
    """A first-order jet in one seeded direction: value ``val`` and tangent
    ``grad``, floats or (P,) lanes.  Its arithmetic is Jet arithmetic and
    returns Jets; nested seeding, ``Dual(Dual(x, 1), Dual(1, 0))``, gives
    exact second derivatives."""

    __slots__ = ()

    def __init__(self, val, dot=0.0):
        Jet.__init__(self, val, dot)


def primal(x):
    """Strip all jet levels and return the underlying value."""
    while isinstance(x, Jet):
        x = x.val
    return x


def tangent(x):
    """The first-order part of a scalar, a Dual's tangent; 0 for a float."""
    return x.grad if isinstance(x, Jet) else 0.0


def d_sin(x):
    if isinstance(x, Jet):
        s = d_sin(x.val)
        return x.chain(s, d_cos(x.val), -s)
    return _libm(math.sin, x)


def d_cos(x):
    if isinstance(x, Jet):
        c = d_cos(x.val)
        return x.chain(c, -d_sin(x.val), -c)
    return _libm(math.cos, x)


def d_exp(x):
    if isinstance(x, Jet):
        e = d_exp(x.val)
        return x.chain(e, e, e)
    return _libm(math.exp, x)


def _check_positive(x, what):
    p = primal(x)
    bad = p <= 0.0
    if any_lane(bad):
        raise EvalDomainError(f"{what} of non-positive argument {first_lane(p, bad)}")


def d_log(x):
    _check_positive(x, "log")
    if isinstance(x, Jet):
        inv = 1.0 / x.val
        return x.chain(d_log(x.val), inv, -inv * inv)
    return _libm(math.log, x)


def d_sqrt(x):
    # disallow 0 too: the derivative blows up there; f'' is formed at order 2
    # only, since s * x.val can underflow to a float 0.0
    _check_positive(x, "sqrt")
    if isinstance(x, Jet):
        s = d_sqrt(x.val)
        return x.chain(s, 0.5 / s, None if x.hess is None else -0.25 / (s * x.val))
    return _libm(math.sqrt, x)


def d_ipow(x, n: int):
    """x**n for integer n by repeated multiplication (dual-exact)."""
    if n == 0:
        return 1.0
    if n < 0:
        d = d_ipow(x, -n)
        zero = primal(d) == 0.0
        if any_lane(zero):
            raise EvalDomainError(
                f"division by zero in power {n} of {first_lane(primal(x), zero)}")
        return 1.0 / d
    r = x
    for _ in range(n - 1):
        r = r * x
    return r


_FUNCTIONS = {"sin": d_sin, "cos": d_cos, "exp": d_exp, "log": d_log, "sqrt": d_sqrt}


# ---------------------------------------------------------------------------
# expression AST

# Node precedence levels used for minimal-paren printing.
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
MAX_EXPONENT = 64   # the largest |n| of x^n: its walk makes |n| - 1 products
# the deepest nesting of parentheses, calls and unary minus the parser
# recurses through (about 5 frames a level), and the greatest height of the
# tree it builds (an n-term chain is n - 1 high), which each walk recurses
# through: within the default recursion limit at this bound
MAX_DEPTH = 100


class Num:
    __slots__ = ("value",)
    height = 0

    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value

    prec = _PREC_ATOM

    def to_str(self):
        return repr(self.value)


class Var:
    __slots__ = ("index", "name")
    height = 0

    def __init__(self, index, name):
        self.index = index
        self.name = name

    def eval(self, env):
        return env[self.index]

    prec = _PREC_ATOM

    def to_str(self):
        return self.name


class Neg:
    __slots__ = ("arg", "height")

    def __init__(self, arg):
        self.arg = arg
        self.height = arg.height + 1

    def eval(self, env):
        return -self.arg.eval(env)

    prec = _PREC_UNARY

    def to_str(self):
        return "-" + _wrap(self.arg, _PREC_UNARY)


class BinOp:
    __slots__ = ("op", "left", "right", "height")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.height = max(left.height, right.height) + 1

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if any_lane(primal(b) == 0.0):
            raise EvalDomainError("division by zero")
        return a / b

    @property
    def prec(self):
        return _PREC_ADD if self.op in "+-" else _PREC_MUL

    def to_str(self):
        lp = self.prec
        # right operand needs strictly higher precedence under - and /
        left = _wrap(self.left, lp)
        right = _wrap(self.right, lp, strict=self.op in "-/")
        return f"{left} {self.op} {right}"


class Pow:
    __slots__ = ("base", "exponent", "height")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)
        self.height = base.height + 1

    def eval(self, env):
        return d_ipow(self.base.eval(env), self.exponent)

    prec = _PREC_POW

    def to_str(self):
        return f"{_wrap(self.base, _PREC_ATOM)}^{self.exponent}"


class Call:
    __slots__ = ("fname", "arg", "height")

    def __init__(self, fname, arg):
        self.fname = fname
        self.arg = arg
        self.height = arg.height + 1

    def eval(self, env):
        return _FUNCTIONS[self.fname](self.arg.eval(env))

    prec = _PREC_ATOM

    def to_str(self):
        return f"{self.fname}({self.arg.to_str()})"


def _wrap(node, min_prec, strict=False):
    p = node.prec
    if p < min_prec or (strict and p == min_prec):
        return "(" + node.to_str() + ")"
    return node.to_str()


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def coordinate_name(name: str) -> bool:
    """Whether an expression can read a coordinate of this name: an identifier, not a function."""
    return re.fullmatch(_IDENT, name) is not None and name not in _FUNCTIONS


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip-only whitespace tail is fine
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, coord_names):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0      # the nesting levels open at the current token
        self.coord_index = {name: k for k, name in enumerate(coord_names)}
        self.reads = set()  # the index of each Var built

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.peek()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}", pos)
        return self.next()

    def enter(self, pos):
        """Opens a nesting level at ``pos``; ExprSyntaxError past MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", pos)

    def built(self, node, pos):
        """``node``, or ExprSyntaxError at ``pos`` when its tree is higher than
        MAX_DEPTH."""
        if node.height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", pos)
        return node

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.next()
            node = self.built(BinOp(op, node, self.term()), pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            node = self.built(BinOp(op, node, self.unary()), pos)
        return node

    def unary(self):
        if self.peek()[1] == "-":
            pos = self.next()[2]
            self.enter(pos)
            arg = self.unary()
            self.depth -= 1
            # fold negated literals so constant detection sees them
            if isinstance(arg, Num):
                return Num(-arg.value)
            return self.built(Neg(arg), pos)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            kind, val, pos = self.peek()
            if kind != "number" or not re.fullmatch(r"\d+", val):
                raise ExprSyntaxError("expected integer exponent after '^'", pos)
            n = int(val.lstrip("0")[:3] or 0)   # three digits exceed the bound
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(f"integer exponent beyond {MAX_EXPONENT} in magnitude", pos)
            self.next()
            return self.built(Pow(base, sign * n), pos)
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "number":
            return Num(val)
        if kind == "ident":
            if val in _FUNCTIONS:
                self.enter(self.expect("(")[2])
                arg = self.expr()
                self.expect(")")
                self.depth -= 1
                return self.built(Call(val, arg), pos)
            if val in self.coord_index:
                self.reads.add(self.coord_index[val])
                return Var(self.coord_index[val], val)
            raise UnknownIdentifierError(val, pos)
        if val == "(":
            self.enter(pos)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise ExprSyntaxError(f"expected a number, identifier or '('", pos)


# ---------------------------------------------------------------------------
# public API


class DualScalar(NamedTuple):
    value: float
    derivative: float


class ScalarField:
    """A real-valued function of chart coordinates, given by an expression
    tree, and ``reads``, the sorted indices of the coordinates its tree
    holds a Var of, recorded by the parser (``0*x`` reads x).  Immutable;
    evaluation is a pure function."""

    __slots__ = ("body", "coord_names", "reads")

    def __init__(self, body, coord_names, reads):
        self.body = body
        self.coord_names = tuple(coord_names)
        self.reads = tuple(sorted(reads))

    @property
    def arity(self):
        return len(self.coord_names)

    def eval_scalar(self, env):
        """Evaluate with a generic scalar environment: floats, lane arrays or Jets."""
        return self.body.eval(env)

    def __call__(self, point: Sequence[float]) -> float:
        v = self.body.eval([float(x) for x in point])
        if not math.isfinite(v):
            raise NonFiniteError(f"evaluation produced {v}")
        return v

    def to_string(self) -> str:
        return self.body.to_str()

    def __repr__(self):
        return f"ScalarField({self.to_string()!r}, coords={list(self.coord_names)})"


def parse_expression(text: str, coord_names: Sequence[str]) -> ScalarField:
    """Parse ``text`` over the given coordinate names.

    Precedence, tightest first: ``^`` (integer exponent), unary minus,
    ``* /``, ``+ -``.  Unknown identifiers are rejected.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    names = list(coord_names)
    if len(set(names)) != len(names):
        raise ValueError("coordinate names must be pairwise distinct")
    parser = _Parser(text, names)
    return ScalarField(parser.parse(), names, parser.reads)


def eval_with_derivative(f: ScalarField, point: Sequence[float], j: int) -> DualScalar:
    """Value and exact partial derivative of ``f`` w.r.t. coordinate ``j``."""
    if not 0 <= j < f.arity:
        raise IndexError(f"coordinate index {j} out of range for arity {f.arity}")
    env = [Dual(float(x), 1.0 if k == j else 0.0) for k, x in enumerate(point)]
    out = f.eval_scalar(env)
    value, deriv = primal(out), primal(tangent(out))
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise NonFiniteError(f"evaluation produced ({value}, {deriv})")
    return DualScalar(value, deriv)
