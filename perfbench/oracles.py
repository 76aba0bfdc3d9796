"""Output checks that share no code with the paths they check.

Polynomial output is read back from its text, JSON or LaTeX rendering by a
parser written here, and its value at X = (1, 1, ...) is the plain sum of
its coefficients.  Series output is checked with a truncated power-series
composer written here, in ordinary (not exponential) normalisation.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

_TEXT_LINE = re.compile(r"^(\w+)\[(\d+),(\d+)\] = (.*)$")
_LATEX_LINE = re.compile(r"^\$(\w+)_\{(\d+),(\d+)\}=(.*)\$$")
_LATEX_LAURENT = re.compile(r"^X_\{1\}\^\{-\d+\}\((.*)\)$")
_LEADING_INT = re.compile(r"^(\d*)")


def _coefficient(term: str) -> int:
    """Coefficient of one unsigned term such as `3*X2^2`, `X1*X3`, `3X_{2}` or `7`."""
    digits = _LEADING_INT.match(term).group(1)
    rest = term[len(digits):]
    if not rest:
        if not digits:
            raise ValueError("empty term")
        return int(digits)
    if not rest.lstrip("*").startswith("X"):
        raise ValueError(f"malformed term {term!r}")
    return int(digits) if digits else 1


def coefficient_sum(body: str) -> int:
    """Sum of the signed coefficients of a rendered polynomial.

    Terms are separated by ` + ` and ` - `; the first may carry a leading `-`.
    """
    body = body.strip()
    if body == "0":
        return 0
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    tokens = body.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"unbalanced polynomial {body[:60]!r}")
    total = sign * _coefficient(tokens[0])
    for op, term in zip(tokens[1::2], tokens[2::2]):
        if op not in ("+", "-"):
            raise ValueError(f"bad separator {op!r}")
        total += (1 if op == "+" else -1) * _coefficient(term)
    return total


def _text_value(body: str) -> int:
    # a Laurent value renders as `num/X1^d` or `(num)/X1^d`
    num, slash, _ = body.rpartition("/X1")
    if slash:
        body = num[1:-1] if num.startswith("(") else num
    return coefficient_sum(body)


def _latex_value(body: str) -> int:
    m = _LATEX_LAURENT.match(body)
    return coefficient_sum(m.group(1) if m else body)


def row_values_at_ones(text: str, fmt: str, kind: str, n: int) -> dict[int, int]:
    """Map k -> value at all-ones for a full `msp gen` row of kind and n."""
    values: dict[int, int] = {}
    if fmt == "json":
        payload = json.loads(text)
        if payload["kind"] != kind or payload["n"] != n:
            raise ValueError("row header does not match the request")
        for item in payload["items"]:
            values[item["k"]] = sum(int(t["coeff"]) for t in item["poly"]["terms"])
        return values
    pattern, value = (_TEXT_LINE, _text_value) if fmt == "text" else (_LATEX_LINE, _latex_value)
    for line in text.splitlines():
        m = pattern.match(line)
        if m is None or m.group(1) != kind or int(m.group(2)) != n:
            raise ValueError(f"unexpected line {line[:60]!r}")
        values[int(m.group(3))] = value(m.group(4))
    return values


# ---------------------------------------------------------------------------
# truncated power series, ordinary normalisation: a[i] is the x^i coefficient
# ---------------------------------------------------------------------------


def _ordinary(egf: list[Fraction]) -> list[Fraction]:
    """EGF coefficients f_1..f_N to the ordinary list a_0..a_N (a_0 = 0)."""
    return [Fraction(0)] + [c / factorial(i) for i, c in enumerate(egf, start=1)]


def _times(p: list[Fraction], q: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, pi in enumerate(p):
        if pi:
            for j in range(order + 1 - i):
                if q[j]:
                    out[i + j] += pi * q[j]
    return out


def _powers(b: list[Fraction], order: int) -> list[list[Fraction]]:
    """b^0 .. b^order truncated after x^order."""
    out = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(order):
        out.append(_times(out[-1], b, order))
    return out


def compose(f: list[Fraction], g: list[Fraction], order: int) -> list[Fraction]:
    """EGF coefficients h_1..h_order of f(g(x))."""
    a = _ordinary(f)
    powers = _powers(_ordinary(g), order)
    return [
        factorial(n) * sum((a[m] * powers[m][n] for m in range(1, min(n, len(a) - 1) + 1)), Fraction(0))
        for n in range(1, order + 1)
    ]


def is_inverse(f: list[Fraction], g: list[Fraction]) -> bool:
    """True when f(g(x)) = x to the length of g."""
    order = len(g)
    h = compose(f, g, order)
    return h == [Fraction(1)] + [Fraction(0)] * (order - 1)


def exp_rows(f: list[Fraction], order: int) -> list[list[Fraction]]:
    """Rows n = 1..order of exp(t*f(x)): the t^k entry is n!/k! [x^n] F(x)^k."""
    powers = _powers(_ordinary(f), order)
    return [
        [Fraction(0)] + [Fraction(factorial(n), factorial(k)) * powers[k][n] for k in range(1, n + 1)]
        for n in range(1, order + 1)
    ]
