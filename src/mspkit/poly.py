"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial in the indeterminates X1, X2, ... is stored as a dict mapping
exponent tuples to nonzero Python ints (arbitrary precision).  Exponent
tuples are kept trimmed of trailing zeros, so the representation is
canonical: two polynomials are equal iff their term dicts are equal.

    3*X2^2 - X1*X3   ->   {(0, 2): 3, (1, 0, 1): -1}

The zero polynomial is the empty dict.  Term iteration and serialization
use graded lexicographic order (total degree first, then the exponent
tuple), which makes every textual/JSON output deterministic.

`LaurentX1` extends this with a single nonnegative power of X1 in the
denominator; that is the only Laurent behaviour the library needs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


def _trim(exps: Iterable[int]) -> Exponents:
    """Drop trailing zeros from an exponent vector."""
    t = tuple(exps)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


class MPoly:
    """Immutable sparse polynomial in X1..Xm over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        store: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not int:
                    raise ValueError(f"coefficient {coeff!r} is not an int")
                if coeff == 0:
                    continue
                # a tuple that ends in a nonzero entry (or is empty) is trimmed
                if type(exps) is tuple and (not exps or exps[-1]):
                    key = exps
                else:
                    key = _trim(exps)
                if key and min(key) < 0:
                    raise ValueError(f"negative exponent in {key}")
                c = store.get(key, 0) + coeff
                if c:
                    store[key] = c
                else:
                    store.pop(key, None)
        object.__setattr__(self, "_terms", store)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def const(cls, c: int) -> MPoly:
        return cls({(): c})

    @classmethod
    def var(cls, j: int) -> MPoly:
        """The indeterminate X_j (1-based)."""
        if j < 1:
            raise ValueError("indeterminate index must be >= 1")
        return cls({(0,) * (j - 1) + (1,): 1})

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[int]) -> MPoly:
        return cls({tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[Exponents, int]]:
        """Terms in graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(_trim(exps), 0)

    def width(self) -> int:
        """Largest indeterminate index occurring (0 for constants)."""
        return max((len(e) for e in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({(): other} if other else {})
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its int, so it must hash as that int
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: MPoly | int) -> MPoly:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: MPoly | int) -> MPoly:
        return self + (-other)

    def __rsub__(self, other: int) -> MPoly:
        return MPoly.const(other) - self

    def __mul__(self, other: MPoly | int) -> MPoly:
        if isinstance(other, int):
            if other == 0:
                return MPoly.zero()
            return _raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        out: dict[Exponents, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                if len(ea) < len(eb):
                    ea_p, eb_p = eb, ea
                else:
                    ea_p, eb_p = ea, eb
                key = tuple(
                    x + (eb_p[i] if i < len(eb_p) else 0) for i, x in enumerate(ea_p)
                )
                c = out.get(key, 0) + ca * cb
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(1)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, j: int) -> MPoly:
        """Formal partial derivative with respect to X_j (1-based)."""
        if j < 1:
            raise ValueError("indeterminate index must be >= 1")
        i = j - 1
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            if i >= len(exps) or exps[i] == 0:
                continue
            e = exps[i]
            key = _trim(exps[:i] + (e - 1,) + exps[i + 1 :])
            out[key] = out.get(key, 0) + coeff * e
        return _raw(out)

    def substitute(self, subs: Sequence[MPoly]) -> MPoly:
        """Substitute subs[j-1] for X_j, fully expanded.

        Every indeterminate occurring in the polynomial must have an entry.
        """
        if self.width() > len(subs):
            raise ValueError(
                f"substitution covers X1..X{len(subs)} but X{self.width()} occurs"
            )
        # powers[j] caches subs[j]^e, filled on demand
        powers: list[list[MPoly]] = [[MPoly.const(1)] for _ in subs]
        total = MPoly.zero()
        for exps, coeff in self.terms():
            term = MPoly.const(coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * subs[i])
                term = term * cache[e]
            total = total + term
        return total

    def eval_rat(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational point (point[j-1] is the value of X_j)."""
        if self.width() > len(point):
            raise ValueError(
                f"point covers X1..X{len(point)} but X{self.width()} occurs"
            )
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            v = Fraction(coeff)
            for i, e in enumerate(exps):
                if e:
                    v *= Fraction(point[i]) ** e
            total += v
        return total

    # -- degrees -----------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed.

        The zero polynomial has no degree and is rejected.
        """
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        degs = {sum(e) for e in self._terms}
        return degs.pop() if len(degs) == 1 else None

    def isobaric_degree(self) -> int | None:
        """Common weight with X_j weighted j, or None if mixed."""
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        degs = {sum((i + 1) * e for i, e in enumerate(exps)) for exps in self._terms}
        return degs.pop() if len(degs) == 1 else None

    # -- X1 bookkeeping (support for LaurentX1) ----------------------------

    def min_x1_power(self) -> int:
        """Smallest exponent of X1 over all terms (0 for the zero polynomial)."""
        if self.is_zero:
            return 0
        return min((e[0] if e else 0) for e in self._terms)

    def shift_x1(self, m: int) -> MPoly:
        """Multiply by X1^m; m may be negative if every term allows it."""
        if m == 0:
            return self
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            e0 = (exps[0] if exps else 0) + m
            if e0 < 0:
                raise ValueError("not divisible by X1^%d" % -m)
            out[_trim((e0,) + exps[1:])] = coeff
        return _raw(out)

    # -- rendering and serialization ---------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MPoly({format_poly(self)!r})"

    def to_latex(self) -> str:
        return format_poly(self, latex=True)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"coeff": str(c), "exponents": list(e)} for e, c in self.terms()
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> MPoly:
        terms: dict[Exponents, int] = {}
        for item in data["terms"]:
            terms[tuple(item["exponents"])] = int(item["coeff"])
        return cls(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> MPoly:
        return cls.from_json_dict(json.loads(text))


def _raw(store: dict[Exponents, int]) -> MPoly:
    """Wrap an already-canonical term dict without re-checking."""
    p = MPoly.__new__(MPoly)
    object.__setattr__(p, "_terms", store)
    return p


# ---------------------------------------------------------------------------
# text format:  c*X1^a*X2^b, '^1' omitted, zero-exponent factors omitted,
# unit coefficients shown as sign only.  Example: 3*X2^2 - X1*X3
# ---------------------------------------------------------------------------


def _monomial_str(exps: Exponents, latex: bool) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        if latex:
            parts.append(f"X_{{{i + 1}}}" + (f"^{{{e}}}" if e > 1 else ""))
        else:
            parts.append(f"X{i + 1}" + (f"^{e}" if e > 1 else ""))
    return ("" if latex else "*").join(parts)


def format_poly(p: MPoly, latex: bool = False) -> str:
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for exps, coeff in p.terms():
        mono = _monomial_str(exps, latex)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        elif latex:
            body = f"{mag}{mono}"
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


_FACTOR = r"X[1-9][0-9]*(?:\^[0-9]+)?"
_TERM = rf"(?:(?:[0-9]+\*)?{_FACTOR}(?:\*{_FACTOR})*|[0-9]+)"
_POLY_RE = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*")
_TERM_RE = re.compile(rf"(^-?| [+-] )({_TERM})")


def parse_poly(text: str) -> MPoly:
    """Parse the text format produced by `format_poly`.

    The grammar is strict: terms are `c`, `X<j>^<e>` products or `c*` such a
    product (j >= 1, `^<e>` optional), joined by " + " or " - ", with an
    optional leading "-"; surrounding whitespace is ignored.  Anything else,
    including the empty string, raises ValueError.
    """
    s = text.strip()
    if not _POLY_RE.fullmatch(s):
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms: dict[Exponents, int] = {}
    for sep, tok in _TERM_RE.findall(s):
        coeff = -1 if "-" in sep else 1
        exps: dict[int, int] = {}
        for factor in tok.split("*"):
            if factor[0] == "X":
                base, _, power = factor.partition("^")
                i = int(base[1:]) - 1
                exps[i] = exps.get(i, 0) + (int(power) if power else 1)
            else:
                coeff *= int(factor)
        vec = [0] * (max(exps) + 1 if exps else 0)
        for i, e in exps.items():
            vec[i] = e
        key = tuple(vec)
        terms[key] = terms.get(key, 0) + coeff
    return MPoly(terms)


# ---------------------------------------------------------------------------
# Laurent polynomials with denominator restricted to a power of X1
# ---------------------------------------------------------------------------


class LaurentX1:
    """A value num / X1^x1_den with num an MPoly and x1_den >= 0.

    Canonical form: either x1_den == 0 or num is not divisible by X1, and
    the zero value is stored with x1_den == 0.  Equality of canonical forms
    is equality of values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: MPoly, x1_den: int = 0):
        if x1_den < 0:
            raise ValueError("x1_den must be nonnegative")
        if num.is_zero:
            num, x1_den = MPoly.zero(), 0
        else:
            g = min(x1_den, num.min_x1_power())
            if g:
                num, x1_den = num.shift_x1(-g), x1_den - g
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", x1_den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentX1 is immutable")

    @classmethod
    def from_poly(cls, p: MPoly) -> LaurentX1:
        return cls(p, 0)

    @classmethod
    def zero(cls) -> LaurentX1:
        return cls(MPoly.zero(), 0)

    @classmethod
    def one(cls) -> LaurentX1:
        return cls(MPoly.const(1), 0)

    @property
    def num(self) -> MPoly:
        return self._num

    @property
    def x1_den(self) -> int:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def to_poly(self) -> MPoly:
        """The underlying MPoly; fails if a true X1 denominator remains."""
        if self._den:
            raise ValueError(f"value has denominator X1^{self._den}")
        return self._num

    def __eq__(self, other) -> bool:
        if isinstance(other, (MPoly, int)):
            return self._den == 0 and self._num == other
        if not isinstance(other, LaurentX1):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # with no denominator the value equals its numerator (and any int it equals)
        if self._den == 0:
            return hash(self._num)
        return hash((self._num, self._den))

    def __add__(self, other: LaurentX1) -> LaurentX1:
        if isinstance(other, (MPoly, int)):
            other = LaurentX1.from_poly(
                other if isinstance(other, MPoly) else MPoly.const(other)
            )
        d = max(self._den, other._den)
        num = self._num.shift_x1(d - self._den) + other._num.shift_x1(d - other._den)
        return LaurentX1(num, d)

    __radd__ = __add__

    def __neg__(self) -> LaurentX1:
        return LaurentX1(-self._num, self._den)

    def __sub__(self, other: LaurentX1) -> LaurentX1:
        return self + (-other)

    def __mul__(self, other: LaurentX1 | MPoly | int) -> LaurentX1:
        if isinstance(other, int):
            return LaurentX1(self._num * other, self._den)
        if isinstance(other, MPoly):
            return LaurentX1(self._num * other, self._den)
        return LaurentX1(self._num * other._num, self._den + other._den)

    __rmul__ = __mul__

    def eval_rat(self, point: Sequence[Fraction | int]) -> Fraction:
        v = self._num.eval_rat(point)
        if self._den:
            x1 = Fraction(point[0])
            v /= x1**self._den
        return v

    def __str__(self) -> str:
        if self._den == 0:
            return format_poly(self._num)
        num = format_poly(self._num)
        if len(self._num) > 1:
            num = f"({num})"
        return f"{num}/X1" + (f"^{self._den}" if self._den > 1 else "")

    def __repr__(self) -> str:
        return f"LaurentX1({self!s})"

    def to_json_dict(self) -> dict:
        d = self._num.to_json_dict()
        d["x1_den"] = self._den
        return d

    @classmethod
    def from_json_dict(cls, data: Mapping) -> LaurentX1:
        return cls(MPoly.from_json_dict(data), int(data.get("x1_den", 0)))
