"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial in X1, X2, ... is stored as a dict mapping packed monomials to
nonzero Python ints (arbitrary precision).  A packed monomial is one int
whose 16-bit field j-1 holds the exponent of X_j, so the form is canonical
(equal polynomials have equal dicts) and a monomial product is one addition:

    3*X2^2 - X1*X3   ->   {2 << 16: 3, 1 + (1 << 32): -1}

Every exponent is at most 32767 (2^15 - 1), so a sum of two fields never
carries into the next; an exponent beyond that, from the constructor, a
product or an X1 shift, raises ValueError.  The public API speaks exponent
tuples trimmed of trailing zeros, and term iteration and serialization use
graded lexicographic order (total degree first, then the exponent tuple),
which makes every textual/JSON output deterministic.

The library's identities are sums of products of such polynomials.
`MPoly.sum_products` forms one, the sum of c*a*b over triples (a, b, c),
in a single dict, as in Monagan & Pearce (CASC 2007): each term pair adds
into it, zero coefficients are dropped once at the end, and the exponent
limit is checked once on the result.  An X1 shift by m is the factor X1^m,
and a plain product a*b is the single triple (a, b, 1).

`LaurentX1` extends this with a single nonnegative power of X1 in the
denominator; that is the only Laurent behaviour the library needs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from operator import getitem, mul, or_
from struct import Struct, error as StructError
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]

_MAX_EXPONENT = 2**15 - 1
_FIELD = 0xFFFF  # one exponent field; the X1 field of a key is key & _FIELD


class _Memo(dict):
    """A dict that fills a missing entry with make(key)."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# _CODECS[w] turns w exponents into the 2w little-endian bytes of a key and back
_CODECS = _Memo(lambda w: Struct(f"<{w}H"))


def _unpack(key: int) -> Exponents:
    """The exponent tuple of a key, trimmed of trailing zeros."""
    w = (key.bit_length() + 15) >> 4
    return _CODECS[w].unpack(key.to_bytes(2 * w, "little"))


def _check_fields(keys: Iterable[int], union: int) -> None:
    """Raise if a field of a key (`union` is their OR) has its top bit set."""
    top = int.from_bytes(b"\x00\x80" * (union.bit_length() // 16 + 1), "little")
    if union & top:
        bad = next(k for k in keys if k & top)
        raise ValueError(f"exponent in {_unpack(bad)} exceeds {_MAX_EXPONENT}")


_INT = {int}


def _check_exponents(terms: Iterable[Exponents]) -> None:
    """Name the first key with a non-int, negative or too large exponent."""
    for exps in terms:
        if not _INT.issuperset(map(type, exps)):
            raise ValueError(f"exponent in {exps!r} is not an int")
    for exps in terms:
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
    bad = next(exps for exps in terms if exps and max(exps) > _MAX_EXPONENT)
    raise ValueError(f"exponent in {bad} exceeds {_MAX_EXPONENT}")


_DECIMAL = re.compile(r"-?[0-9]+")


class MPoly:
    """Immutable sparse polynomial in X1..Xm over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        store: dict[int, int] = {}
        if terms:
            # struct rejects floats, negatives and values >= 2^16 but takes bools
            if not _INT.issuperset(map(type, chain.from_iterable(terms))):
                _check_exponents(terms)
            try:
                keys = [int.from_bytes(_CODECS[len(e)].pack(*e), "little") for e in terms]
            except StructError:
                _check_exponents(terms)
            _check_fields(keys, reduce(or_, keys))
            coeffs = terms.values()
            if not _INT.issuperset(map(type, coeffs)):
                bad = next(c for c in coeffs if type(c) is not int)
                raise ValueError(f"coefficient {bad!r} is not an int")
            store = dict(zip(keys, coeffs))
            # merge keys that differed only in trailing zeros, drop zeros
            if len(store) < len(keys) or 0 in coeffs:
                store = {}
                for key, coeff in zip(keys, coeffs):
                    store[key] = store.get(key, 0) + coeff
                store = {key: c for key, c in store.items() if c}
        object.__setattr__(self, "_terms", store)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    # const and var build valid keys and skip the constructor's exponent
    # check: substitute and the recurrences build one of them per term

    @classmethod
    def const(cls, c: int) -> MPoly:
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an int")
        return _raw({0: c} if c else {})

    @classmethod
    def var(cls, j: int) -> MPoly:
        """The indeterminate X_j (1-based)."""
        if type(j) is not int or j < 1:
            raise ValueError(f"indeterminate index must be an int >= 1, got {j!r}")
        return _raw({1 << 16 * (j - 1): 1})

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
        terms = self._terms
        exps = list(map(_unpack, terms))
        return [(e, c) for _, e, c in sorted(zip(map(sum, exps), exps, terms.values()))]

    def coefficient(self, exps: Iterable[int]) -> int:
        exps = tuple(exps)
        if not _INT.issuperset(map(type, exps)):
            raise ValueError(f"exponent in {exps!r} is not an int")
        try:
            key = int.from_bytes(_CODECS[len(exps)].pack(*exps), "little")
        except StructError:  # a negative or huge exponent occurs in no term
            return 0
        return self._terms.get(key, 0)

    def width(self) -> int:
        """Largest indeterminate index occurring (0 for constants)."""
        return (max(self._terms, default=0).bit_length() + 15) >> 4

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its int, so it must hash as that int
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash(frozenset(terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: MPoly | int) -> MPoly:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: MPoly | int) -> MPoly:
        if isinstance(other, int):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> MPoly:
        return MPoly.const(other) - self

    def __mul__(self, other: MPoly | int) -> MPoly:
        if isinstance(other, int):
            if type(other) is not int:
                raise ValueError(f"coefficient {other!r} is not an int")
            if other == 0:
                return MPoly.zero()
            return _raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        return MPoly.sum_products(((self, other, 1),))

    __rmul__ = __mul__

    @staticmethod
    def sum_products(parts: Iterable[tuple[MPoly, MPoly, int]]) -> MPoly:
        """The sum of c*a*b over the triples (a, b, c) of `parts`, with a and
        b MPolys and c an int, accumulated in one dict.

        An exponent above 32767 raises only if it survives in the sum.
        """
        out: dict[int, int] = {}
        get = out.get
        for a, b, c in parts:
            if not isinstance(a, MPoly) or not isinstance(b, MPoly):
                bad = b if isinstance(a, MPoly) else a
                raise ValueError(f"factor {bad!r} is not an MPoly")
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
            left, right = a._terms.items(), b._terms.items()
            if len(left) > len(right):
                left, right = right, left
            for ea, ca in left:
                ca *= c
                for eb, cb in right:
                    key = ea + eb
                    out[key] = get(key, 0) + ca * cb
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        # factor fields are at most 2^15 - 1, so no sum carried
        _check_fields(out, reduce(or_, out, 0))
        return _raw(out)

    def __pow__(self, n: int) -> MPoly:
        if type(n) is not int or n < 0:
            raise ValueError(f"a polynomial power needs an int exponent >= 0, got {n!r}")
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
        if type(j) is not int or j < 1:
            raise ValueError(f"indeterminate index must be an int >= 1, got {j!r}")
        if j > self.width():
            return MPoly.zero()
        shift = 16 * (j - 1)
        unit = 1 << shift
        return _raw({key - unit: coeff * e for key, coeff in self._terms.items()
                     if (e := key >> shift & _FIELD)})

    def substitute(self, subs: Sequence[MPoly]) -> MPoly:
        """Substitute subs[j-1] for X_j, fully expanded.

        Every indeterminate occurring in the polynomial must have an entry.
        """
        if self.width() > len(subs):
            raise ValueError(
                f"substitution covers X1..X{len(subs)} but X{self.width()} occurs"
            )
        one = MPoly.const(1)
        # powers[j] caches subs[j]^e, filled on demand
        powers: list[list[MPoly]] = [[one] for _ in subs]

        def parts():
            # each term is (product of all factors but the last, last factor,
            # coefficient), so its full product is never built
            terms = self._terms
            for exps, coeff in zip(map(_unpack, terms), terms.values()):
                factors = []
                for i, e in enumerate(exps):
                    if e:
                        cache = powers[i]
                        while len(cache) <= e:
                            cache.append(cache[-1] * subs[i])
                        factors.append(cache[e])
                last = factors.pop() if factors else one
                yield reduce(mul, factors) if factors else one, last, coeff

        return MPoly.sum_products(parts())

    def eval_rat(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational point (point[j-1] is the value of X_j), as
        a Fraction; every coordinate is an int or a Fraction, and an all-int
        point sums in ints."""
        if self.width() > len(point):
            raise ValueError(f"point covers X1..X{len(point)} but X{self.width()} occurs")
        for x in point:
            if type(x) is not int and not isinstance(x, Fraction):
                raise ValueError(f"coordinate {x!r} is not an int or a Fraction")
        total = 0
        terms = self._terms
        for exps, coeff in zip(map(_unpack, terms), terms.values()):
            for x, e in zip(point, exps):
                if e:
                    coeff *= x**e
            total += coeff
        return Fraction(total)

    # -- degrees -----------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed.

        The zero polynomial has no degree and is rejected.
        """
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        degs = set(map(sum, map(_unpack, self._terms)))
        return degs.pop() if len(degs) == 1 else None

    def isobaric_degree(self) -> int | None:
        """Common weight with X_j weighted j, or None if mixed."""
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        degs = {sum((i + 1) * e for i, e in enumerate(exps))
                for exps in map(_unpack, self._terms)}
        return degs.pop() if len(degs) == 1 else None

    # -- X1 bookkeeping (support for LaurentX1) ----------------------------

    def min_x1_power(self) -> int:
        """Smallest exponent of X1 over all terms (0 for the zero polynomial)."""
        return min(map(_FIELD.__and__, self._terms), default=0)

    def shift_x1(self, m: int) -> MPoly:
        """Multiply by X1^m; m may be negative if every term allows it."""
        if type(m) is not int:
            raise ValueError(f"X1 shift {m!r} is not an int")
        terms = self._terms
        if m == 0 or not terms:
            return self
        if m < 0 and min(map(_FIELD.__and__, terms)) < -m:
            raise ValueError("not divisible by X1^%d" % -m)
        if m > 0 and max(map(_FIELD.__and__, terms)) > _MAX_EXPONENT - m:
            raise ValueError(f"exponent of X1 exceeds {_MAX_EXPONENT}")
        return _raw({key + m: c for key, c in terms.items()})

    # -- rendering and serialization ---------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MPoly({format_poly(self)!r})"

    def to_latex(self) -> str:
        return format_poly(self, latex=True)

    def to_json_dict(self) -> dict:
        return {"terms": [{"coeff": str(c), "exponents": list(e)} for e, c in self.terms()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> MPoly:
        terms: dict[Exponents, int] = {}
        for item in data["terms"]:
            coeff = item["coeff"]
            # written as a decimal string; the constructor rejects any non-int
            if type(coeff) is str and _DECIMAL.fullmatch(coeff):
                coeff = int(coeff)
            terms[tuple(item["exponents"])] = coeff
        return cls(terms)


def _raw(store: dict[int, int]) -> MPoly:
    """Wrap an already-canonical term dict without re-checking."""
    p = MPoly.__new__(MPoly)
    object.__setattr__(p, "_terms", store)
    return p


# ---------------------------------------------------------------------------
# text format:  c*X1^a*X2^b, '^1' omitted, zero-exponent factors omitted,
# unit coefficients shown as sign only.  Example: 3*X2^2 - X1*X3
# ---------------------------------------------------------------------------


def _factor(i: int, latex: bool, e: int) -> str:
    """The text of X_i^e, "" for e = 0."""
    if not e:
        return ""
    if latex:
        return f"X_{{{i}}}" + (f"^{{{e}}}" if e > 1 else "")
    return f"X{i}" + (f"^{e}" if e > 1 else "")


# _FACTORS[i, latex][e] is _factor(i, latex, e), made on first use
_FACTORS = _Memo(lambda key: _Memo(partial(_factor, *key)))


def join_terms(terms: Iterable[tuple[int | Fraction, str]], times: str = "*") -> str:
    """Join nonzero (coefficient, monomial) pairs as `c*m + c*m - ...`.

    A unit coefficient shows as its sign alone, an empty monomial as the
    bare coefficient; `times` goes between a coefficient and its monomial.
    No terms give "0".
    """
    chunks: list[str] = []
    for coeff, mono in terms:
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{times}{mono}"
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks) if chunks else "0"


def format_poly(p: MPoly, latex: bool = False) -> str:
    tables = [_FACTORS[i, latex] for i in range(1, p.width() + 1)]
    sep = "" if latex else "*"
    return join_terms([(coeff, sep.join(filter(None, map(getitem, tables, exps))))
                       for exps, coeff in p.terms()], sep)


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
        vec: list[int] = []
        for factor in tok.split("*"):
            if factor[0] == "X":
                base, _, power = factor.partition("^")
                j = int(base[1:])
                vec += [0] * (j - len(vec))
                vec[j - 1] += int(power) if power else 1
            else:
                coeff *= int(factor)
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
        if not isinstance(num, MPoly):
            raise ValueError(f"numerator {num!r} is not an MPoly")
        if type(x1_den) is not int or x1_den < 0:
            raise ValueError(f"x1_den must be a nonnegative int, got {x1_den!r}")
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

    def __add__(self, other: LaurentX1 | MPoly | int) -> LaurentX1:
        if isinstance(other, (MPoly, int)):
            other = LaurentX1(other if isinstance(other, MPoly) else MPoly.const(other))
        if not isinstance(other, LaurentX1):
            return NotImplemented
        d = max(self._den, other._den)
        num = self._num.shift_x1(d - self._den) + other._num.shift_x1(d - other._den)
        return LaurentX1(num, d)

    __radd__ = __add__

    def __neg__(self) -> LaurentX1:
        return LaurentX1(-self._num, self._den)

    def __sub__(self, other: LaurentX1 | MPoly | int) -> LaurentX1:
        if isinstance(other, int):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: MPoly | int) -> LaurentX1:
        if not isinstance(other, (MPoly, int)):
            return NotImplemented
        return -self + other

    def __mul__(self, other: LaurentX1 | MPoly | int) -> LaurentX1:
        if isinstance(other, (MPoly, int)):
            return LaurentX1(self._num * other, self._den)
        if not isinstance(other, LaurentX1):
            return NotImplemented
        return LaurentX1(self._num * other._num, self._den + other._den)

    __rmul__ = __mul__

    def eval_rat(self, point: Sequence[Fraction | int]) -> Fraction:
        if self._den and (not point or point[0] == 0):
            raise ValueError(f"X1 must be nonzero under the denominator X1^{self._den}")
        return self._num.eval_rat(point) / (point[0] ** self._den if self._den else 1)

    def __str__(self) -> str:
        num = format_poly(self._num)
        if self._den == 0:
            return num
        if len(self._num) > 1:
            num = f"({num})"
        return f"{num}/X1" + (f"^{self._den}" if self._den > 1 else "")

    def __repr__(self) -> str:
        return f"LaurentX1({self!s})"

    def to_latex(self) -> str:
        """num in LaTeX, times X_{1}^{-x1_den} when there is a denominator."""
        if self._den == 0:
            return self._num.to_latex()
        return f"X_{{1}}^{{-{self._den}}}({self._num.to_latex()})"

    def to_json_dict(self) -> dict:
        return {**self._num.to_json_dict(), "x1_den": self._den}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> LaurentX1:
        return cls(MPoly.from_json_dict(data), data.get("x1_den", 0))
