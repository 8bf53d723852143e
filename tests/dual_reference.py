"""An independent forward-mode reference for the expression walk.

Dual numbers with their own arithmetic, their own sin/cos/exp/log/sqrt
rules on :mod:`math`, their own domain and overflow checks and their own
walk of a parsed tree.  Nothing here comes from the package's derivative
engine: only the parsed tree's node classes and the exception classes are
shared, so tests can hold the package's ``Jet`` walk against it, and the
coordinates a parse records as read against ``reads``.  A Dual's
parts may be Duals, which gives mixed second derivatives by nested
seeding.  pytest does not collect this file.
"""

import math

from acsgeo.expressions import (BinOp, Call, EvalDomainError, Neg, NonFiniteError, Num, Pow,
                                Var)


class Dual:
    """Forward-mode dual number (value, tangent) of floats or Duals."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = val
        self.dot = dot

    @staticmethod
    def lift(x):
        return x if isinstance(x, Dual) else Dual(float(x), 0.0)

    def __add__(self, other):
        o = Dual.lift(other)
        return Dual(self.val + o.val, self.dot + o.dot)

    __radd__ = __add__

    def __sub__(self, other):
        o = Dual.lift(other)
        return Dual(self.val - o.val, self.dot - o.dot)

    def __rsub__(self, other):
        return Dual.lift(other) - self

    def __mul__(self, other):
        o = Dual.lift(other)
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual.lift(other)
        if primal(o) == 0.0:
            raise EvalDomainError("division by zero")
        v = self.val / o.val
        return Dual(v, (self.dot - v * o.dot) / o.val)

    def __rtruediv__(self, other):
        return Dual.lift(other) / self

    def __neg__(self):
        return Dual(-self.val, -self.dot)


def primal(x):
    """The float under every Dual level."""
    while isinstance(x, Dual):
        x = x.val
    return x


def tangent(x):
    """The tangent of a Dual; 0 for a float."""
    return x.dot if isinstance(x, Dual) else 0.0


def _math(fn, x):
    """``fn`` of a float; overflow and undefined results raise NonFiniteError."""
    try:
        return fn(x)
    except (OverflowError, ValueError):
        raise NonFiniteError(f"{fn.__name__}({x}) is not finite") from None


def _positive(x, what):
    if primal(x) <= 0.0:
        raise EvalDomainError(f"{what} of non-positive argument {primal(x)}")


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.dot)
    return _math(math.sin, x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.dot)
    return _math(math.cos, x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.dot)
    return _math(math.exp, x)


def log(x):
    _positive(x, "log")
    if isinstance(x, Dual):
        return Dual(log(x.val), x.dot / x.val)
    return _math(math.log, x)


def sqrt(x):
    _positive(x, "sqrt")
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.dot / (2.0 * s))
    return _math(math.sqrt, x)


RULES = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}


def power(x, n):
    """x**n for an integer n by repeated multiplication."""
    if n == 0:
        return 1.0
    if n < 0:
        d = power(x, -n)
        if primal(d) == 0.0:
            raise EvalDomainError(f"division by zero in power {n}")
        return 1.0 / d
    r = x
    for _ in range(n - 1):
        r = r * x
    return r


def evaluate(node, env):
    """The parsed tree ``node`` at ``env`` (floats or Duals, one per coordinate)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Pow):
        return power(evaluate(node.base, env), node.exponent)
    if isinstance(node, Call):
        return RULES[node.fname](evaluate(node.arg, env))
    if isinstance(node, BinOp):
        a = evaluate(node.left, env)
        b = evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if primal(b) == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    raise TypeError(f"not an expression node: {node!r}")


def reads(node) -> set:
    """The indices of the coordinates the parsed tree ``node`` holds a Var of."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, (Neg, Call)):
        return reads(node.arg)
    if isinstance(node, Pow):
        return reads(node.base)
    if isinstance(node, BinOp):
        return reads(node.left) | reads(node.right)
    raise TypeError(f"not an expression node: {node!r}")
