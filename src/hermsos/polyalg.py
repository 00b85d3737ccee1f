"""Exact arithmetic for holomorphic polynomial maps and Hermitian squared-norm forms.

Coefficients are Gaussian rationals: complex numbers whose real and
imaginary parts are arbitrary-precision rationals.  Polynomials and forms
store them as Gaussian-integer numerators (re, im) over one positive common
denominator, reduced so that the denominator and the numerators share no
factor; products, sums, Gram matrices and the rank and inertia computations
built on them run over Python integers and are exact, and equality of two
polynomials or forms is a decidable, tolerance-free question.
``GaussianRational`` is the scalar type of the public API: coefficient
lookups, ``terms``, ``entries()`` and evaluation return it, and the
constructors accept it.

Each kind of outside value meets one rule, which the constructors and the
JSON readers of ``documents`` share: an integer argument is an int and not
a bool (``_is_int_at_least``); an exact scalar is an int, a ``Fraction`` or
a ``GaussianRational``, never a float or a bool, and ``GaussianRational``
also reads a string; a string literal is read by ``_parse_rational``, the
one reader, which the JSON readers and ``example1 --lambda`` call too;
rational parts become cells over one denominator through ``_common_den``
(the JSON readers keep an all-int document's cells as they read them); the
dense constructor checks its Gram matrix square over distinct monomials by
``_check_square``; and a form's Gram entries are checked by
``_checked_cells``.

The objects:

  * ``Monomial``       an exponent vector, z^a = z0^{a_0} * ... * z_{n-1}^{a_{n-1}},
                       with its degree, hash and grlex key computed once
  * ``HoloPoly``       a sparse polynomial: the numerators of its nonzero
                       coefficients keyed by Monomial, over one denominator
  * ``HoloMap``        a tuple of polynomials f = (f_1, ..., f_p) sharing n variables,
                       with a positive rational weight per component or none
  * ``HermitianForm``  a Hermitian coefficient matrix over a monomial basis,
                       representing a(z, zbar) = sum_{a,b} G[a][b] z^a zbar^b,
                       stored sparse as Gaussian-integer numerators of its
                       nonzero entries over one common denominator, in an
                       unordered dict keyed by basis index pairs

The squared norm ||f||^2 = sum_k |f_k(z)|^2 of a map is such a form
(``norm_form``), and products of forms are computed by exact Gram
convolution over the Gaussian integers.  Monomial bases and printed
output follow one global graded lexicographic order, so every result is
deterministic and structural equality of canonical forms coincides with
mathematical equality.  The cells of a form are not kept in order:
``entries()``, and so printing, sorts them row-major.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import gcd, lcm
from operator import add, attrgetter, mul, neg
from types import MappingProxyType


# an underscore between two digits, the one place Fraction accepts it from Python 3.11
_DIGIT_SEPARATOR = re.compile(r"(?<=\d)_(?=\d)")

# the literals read without Fraction: an optional minus, digits, an optional /digits
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str) -> tuple[int, int]:
    """``Fraction(text)`` as Python 3.11 reads it, as (numerator, denominator > 0),
    refusing a decimal exponent above 4300 in magnitude.

    The ASCII literals "p", "-p", "p/q" and "-p/q" are read straight into
    integers and are not reduced; any other string goes through Fraction.
    Python 3.10's Fraction accepts no underscore; from 3.11 one between two
    digits is dropped, and so it is here on every version.  Fraction builds
    the power of ten in full, so a short literal such as "1e3000000" would
    take seconds; 4300 is the digit limit CPython puts on integer strings.
    Raises ValueError or ZeroDivisionError like Fraction.
    """
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain is not None:
        num, den = plain.groups()
        den = 1 if den is None else int(den)
        if not den:
            raise ZeroDivisionError(f"Fraction({int(num)}, 0)")
        return int(num), den
    if "_" in text:
        text = _DIGIT_SEPARATOR.sub("", text)
        if "_" in text:
            raise ValueError("an underscore is allowed only between two digits")
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > 4300:
        raise ValueError(f"decimal exponent of {text!r} is out of range")
    q = Fraction(text)
    return q.numerator, q.denominator


def _is_int_at_least(value, least: int) -> bool:
    """Whether value is an int, not a bool, and at least least: the one rule
    for an integer argument, so True is no more a count than a JSON true is."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _as_fraction(value) -> Fraction:
    """Coerce to an exact rational.  Floats and bools are deliberately not
    accepted; a string is read by ``_parse_rational``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_parse_rational(value))
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        den = other.abs2()
        if not den:
            raise ZeroDivisionError("division by zero")
        num = self * other.conjugate()
        return GaussianRational(num.re / den, num.im / den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "GaussianRational":
        if not _is_int_at_least(k, 0):
            raise ValueError("exponent must be a non-negative integer")
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as its real part, as complex does, so it agrees
        # with the int or Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __str__(self) -> str:
        return _complex_text(str(self.re), str(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(value):
    """value as a GaussianRational, or None unless it is an exact scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussianRational(value)
    return None


def _exact_point(point: Sequence, n: int) -> list[GaussianRational]:
    """The n coordinates of a point at which to evaluate, as Gaussian rationals;
    a coordinate that is not an exact scalar is refused by type."""
    if len(point) != n:
        raise ValueError("point has wrong dimension")
    values = []
    for value in point:
        exact = _coerce(value)
        if exact is None:
            raise TypeError(f"expected an exact scalar coordinate, got {type(value).__name__}")
        values.append(exact)
    return values


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _scalar(value) -> tuple[int, int, int, int] | None:
    """An exact scalar's parts re = a/b, im = c/d as (a, b, c, d), or None."""
    if type(value) is int:
        return value, 1, 0, 1
    value = _coerce(value)
    if value is None:
        return None
    return value.re.numerator, value.re.denominator, value.im.numerator, value.im.denominator


def _common_den(values: Mapping) -> tuple[int, dict]:
    """The least common denominator q of (a, b, c, d) values, each a/b + (c/d)*i
    with b, d > 0, and each key's Gaussian-integer numerators (re, im) over q.
    The constructors' route from scalars to cells, and the JSON readers' once
    a literal is not an int.  Only the distinct denominators other than 1 are
    collected, and values with integer parts are not scaled."""
    dens = set()
    for _, b, _, d in values.values():
        dens.add(b)
        dens.add(d)
    dens.discard(1)
    if not dens:
        return 1, {key: (a, c) for key, (a, _, c, _) in values.items()}
    q = lcm(*dens)
    return q, {key: (a * (q // b), c * (q // d)) for key, (a, b, c, d) in values.items()}


def _lowest_terms(den: int, cells: dict) -> tuple[int, dict]:
    """den and the nonzero Gaussian-integer cells over it, with their common
    content divided out."""
    cells = {key: cell for key, cell in cells.items() if cell[0] or cell[1]}
    g = den
    for re, im in cells.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    if g != 1:
        cells = {key: (re // g, im // g) for key, (re, im) in cells.items()}
    return den // g, cells


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0."""
    if den == 1 or not num:
        return str(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _complex_text(re: str, im: str) -> str:
    """A complex number written from the texts of its real and imaginary parts."""
    if im == "0":
        return re
    if re == "0":
        return im + "i"
    return f"{re}{im}i" if im.startswith("-") else f"{re}+{im}i"


def _packed(poly: "HoloPoly", base: int) -> dict:
    """The cells of poly keyed by exponent vector packed into one int, the
    exponent of z_i its digit i in base: the sum of two keys is the key of
    the product as long as no exponent of the product reaches base."""
    powers = [base**i for i in range(poly.n)]
    return {sum(map(mul, mon.exponents, powers)): cell for mon, cell in poly.cells.items()}


def _largest_exponent(polys) -> int:
    """The largest exponent of one variable in any term of the polys; 0 if none."""
    return max((max(mon.exponents) for poly in polys for mon in poly.cells), default=0)


def _mul_cells(a, b):
    """Product of polynomials given as Gaussian-integer numerators keyed by ``_packed`` exponents."""
    out = {}
    for ea, (a_re, a_im) in a.items():
        for eb, (b_re, b_im) in b.items():
            key = ea + eb
            x, y = out.get(key, (0, 0))
            out[key] = (x + a_re * b_re - a_im * b_im, y + a_re * b_im + a_im * b_re)
    return out


# The most monomials ``Monomial._build`` keeps; a full table is emptied at once.
# A monomial with its key and table slot takes about 360 bytes in 3 variables
# and 400 in 6 (tracemalloc, CPython 3.11), so a full table about 1.5 MB.
MONOMIAL_TABLE_MAX = 4096

_MONOMIALS: dict[tuple[int, ...], "Monomial"] = {}


class Monomial:
    """An exponent vector; the number of variables is its length.

    Immutable: ``exponents``, ``degree``, the hash and the ``grlex_key`` are
    computed once, when it is built, so a monomial is a cheap dict key.  Two
    monomials are equal iff their exponents are.  ``Monomial(exponents)``
    checks its input and builds a new object.  ``Monomial._build`` does not
    check, takes only exponents the package built itself or has already
    checked, and returns the one monomial a process-wide table holds for
    them, so the package's own monomials are built once and a dict finds
    them by identity before it calls ``__eq__``.  The table holds at most
    ``MONOMIAL_TABLE_MAX`` monomials and is emptied when full; equality and
    the hash stay by value, so a monomial from before that compares as any.
    """

    __slots__ = ("exponents", "degree", "_grlex", "_hash", "_name")

    def __new__(cls, exponents: Iterable[int]):
        exps = tuple(exponents)
        if not all(_is_int_at_least(e, 0) for e in exps):
            raise ValueError("exponents must be non-negative integers")
        return cls._new(exps)

    @classmethod
    def _build(cls, exps: tuple[int, ...]) -> "Monomial":
        """The table's monomial for a tuple of non-negative ints, unvalidated."""
        mon = _MONOMIALS.get(exps)
        if mon is None:
            if len(_MONOMIALS) >= MONOMIAL_TABLE_MAX:
                _MONOMIALS.clear()
            mon = _MONOMIALS[exps] = cls._new(exps)
        return mon

    @classmethod
    def _new(cls, exps: tuple[int, ...]) -> "Monomial":
        """A new monomial from a tuple of non-negative ints, unvalidated."""
        mon = object.__new__(cls)
        degree = sum(exps)
        init = object.__setattr__
        init(mon, "exponents", exps)
        init(mon, "degree", degree)
        init(mon, "_grlex", (degree, tuple(map(neg, exps))))
        init(mon, "_hash", hash(exps))
        init(mon, "_name", None)
        return mon

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Monomial, (self.exponents,)

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial(exponents={self.exponents!r})"

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        return self._evaluate(_exact_point(point, self.n))

    def _evaluate(self, point: list[GaussianRational]) -> GaussianRational:
        """The value at a point ``_exact_point`` has already converted."""
        out = GR_ONE
        for value, exp in zip(point, self.exponents):
            if exp:
                out = out * value**exp
        return out

    def __str__(self) -> str:
        """Like z0^2*z1, or 1; rendered on first use and kept, so a monomial
        of the table is rendered once however many polynomials print it."""
        name = self._name
        if name is None:
            parts = []
            for i, e in enumerate(self.exponents):
                if e == 1:
                    parts.append(f"z{i}")
                elif e > 1:
                    parts.append(f"z{i}^{e}")
            name = "*".join(parts) if parts else "1"
            object.__setattr__(self, "_name", name)
        return name


# Sort key for the global graded lexicographic order (z0 before z1):
# (degree, negated exponents), stored on the monomial when it is built and
# read at C level, with no Python call per monomial.
grlex_key = attrgetter("_grlex")


def monomials_of_degree(n: int, d: int) -> list[Monomial]:
    """All monomials in n variables of total degree exactly d, grlex-ordered."""
    if not _is_int_at_least(n, 1):
        raise ValueError("need at least one variable")
    if not _is_int_at_least(d, 0):
        raise ValueError("degree must be non-negative")
    # a monomial of degree d is a multiset of d variable indices; the sorted
    # index tuples come in lex order, and that is grlex order of their exponents
    variables = range(n)
    return [Monomial(map(idx.count, variables)) for idx in combinations_with_replacement(variables, d)]


def monomials_up_to_degree(n: int, d: int) -> list[Monomial]:
    """All monomials in n variables of total degree at most d, grlex-ordered."""
    if not _is_int_at_least(d, 0):
        raise ValueError("degree must be non-negative")
    out: list[Monomial] = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(n, k))
    return out


def _check_variable_count(n, what: str = "form") -> None:
    """Refuse a variable count that is not an int >= 1; a bool is refused too."""
    if not _is_int_at_least(n, 1):
        raise ValueError(f"a {what} needs a positive variable count")


class HoloPoly:
    """A sparse holomorphic polynomial with Gaussian-rational coefficients.

    Stored like a ``HermitianForm``: ``cells`` maps each monomial with a
    nonzero coefficient to its Gaussian-integer numerator (re, im) over one
    positive denominator ``den``, and gcd(den, every numerator) = 1, so
    ``==`` is both structural and mathematical equality.  ``terms`` is a
    read-only Monomial -> GaussianRational view built on each access.
    Instances are immutable by convention, so the text of the coefficients,
    which ``str`` and the JSON writer share, is rendered once, on first use
    (``term_texts``), and kept with the polynomial; it takes no part in ``==``.
    """

    __slots__ = ("n", "den", "cells", "_texts")

    def __init__(self, n: int, terms: Mapping[Monomial, object] | None = None):
        _check_variable_count(n, "polynomial")
        values = {}
        for mon, coeff in (terms or {}).items():
            if not isinstance(mon, Monomial):
                raise TypeError("term keys must be Monomial")
            if mon.n != n:
                raise ValueError("monomial has wrong variable count")
            value = _scalar(coeff)
            if value is None:
                raise TypeError("coefficients must be exact rationals")
            values[mon] = value
        self.n = n
        self.den, self.cells = _lowest_terms(*_common_den(values))
        self._texts = None

    @classmethod
    def _build(cls, n: int, den: int, cells) -> "HoloPoly":
        """A polynomial from Gaussian-integer cells over den > 0, unvalidated."""
        return cls._canonical(n, *_lowest_terms(den, cells))

    @classmethod
    def _canonical(cls, n: int, den: int, cells) -> "HoloPoly":
        """A polynomial from nonzero Gaussian-integer cells over den > 0 that
        already share no factor with den, unvalidated and not reduced."""
        poly = object.__new__(cls)
        poly.n, poly.den, poly.cells, poly._texts = n, den, cells, None
        return poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "HoloPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "HoloPoly":
        return cls(n, {Monomial._build((0,) * n): value})

    @classmethod
    def variable(cls, n: int, i: int) -> "HoloPoly":
        _check_variable_count(n, "polynomial")
        if not 0 <= i < n:
            raise ValueError("variable index out of range")
        exps = [0] * n
        exps[i] = 1
        return cls._build(n, 1, {Monomial._build(tuple(exps)): (1, 0)})

    @classmethod
    def monomial(cls, n: int, exponents: Sequence[int], coeff=1) -> "HoloPoly":
        return cls(n, {Monomial(tuple(exponents)): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, GaussianRational]:
        """The coefficients as Gaussian rationals, built on each access."""
        den = self.den
        return MappingProxyType({mon: _gaussian(re, im, den) for mon, (re, im) in self.cells.items()})

    @property
    def is_zero(self) -> bool:
        return not self.cells

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((m.degree for m in self.cells), default=0)

    @property
    def vanishes_at_zero(self) -> bool:
        return Monomial._build((0,) * self.n) not in self.cells

    def term_texts(self) -> list[tuple[Monomial, str, str]]:
        """(monomial, real part, imaginary part) in grlex order, each part in
        lowest terms as ``str(Fraction)`` writes it.  Rendered on the first
        call and kept, so printing and writing a polynomial render it once;
        the list is shared, not copied, and must not be changed."""
        texts = self._texts
        if texts is None:
            cells, den = self.cells, self.den
            texts = self._texts = []
            for mon in sorted(cells, key=grlex_key):
                re, im = cells[mon]
                texts.append((mon, _ratio_text(re, den), _ratio_text(im, den)))
        return texts

    # -- arithmetic ---------------------------------------------------------

    def _check_same_n(self, other: "HoloPoly"):
        if self.n != other.n:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        self._check_same_n(other)
        den = lcm(self.den, other.den)
        acc: dict[Monomial, tuple[int, int]] = {}
        for poly in (self, other):
            scale = den // poly.den
            for mon, (re, im) in poly.cells.items():
                x, y = acc.get(mon, (0, 0))
                acc[mon] = (x + scale * re, y + scale * im)
        return HoloPoly._build(self.n, den, acc)

    def __sub__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "HoloPoly":
        return HoloPoly._build(self.n, self.den, {m: (-re, -im) for m, (re, im) in self.cells.items()})

    def __mul__(self, other):
        if isinstance(other, HoloPoly):
            self._check_same_n(other)
            base = _largest_exponent([self]) + _largest_exponent([other]) + 1
            product = _mul_cells(_packed(self, base), _packed(other, base))
            powers = [base**i for i in range(self.n)]
            cells = {Monomial._build(tuple(key // w % base for w in powers)): cell for key, cell in product.items()}
            return HoloPoly._build(self.n, self.den * other.den, cells)
        scalar = _scalar(other)
        if scalar is None:
            return NotImplemented
        # a/b + (c/d)*i = (ad + bc*i) / bd
        a, b, c, d = scalar
        s_re, s_im = a * d, b * c
        cells = {m: (re * s_re - im * s_im, re * s_im + im * s_re) for m, (re, im) in self.cells.items()}
        return HoloPoly._build(self.n, self.den * b * d, cells)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HoloPoly":
        if not _is_int_at_least(k, 0):
            raise ValueError("exponent must be a non-negative integer")
        out = HoloPoly.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        return self._evaluate(_exact_point(point, self.n))

    def _evaluate(self, point: list[GaussianRational]) -> GaussianRational:
        """The value at a point ``_exact_point`` has already converted."""
        out = GR_ZERO
        for mon, coeff in self.terms.items():
            out = out + coeff * mon._evaluate(point)
        return out

    def __eq__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.cells == other.cells

    __hash__ = None

    def __str__(self) -> str:
        if not self.cells:
            return "0"
        if len(self.cells) == 1 and self.den == 1:
            ((mon, cell),) = self.cells.items()
            if cell == (1, 0):
                return str(mon)  # a monomial alone, as the loop below writes it
        # each term as a sign and its text without it; the first sign is dropped below
        parts = []
        for mon, re, im in self.term_texts():
            coeff = _complex_text(re, im)
            if mon.degree:
                if re != "0" and im != "0":
                    coeff = f"({coeff})"
                name = str(mon)
                if coeff == "1":
                    coeff = name
                elif coeff == "-1":
                    coeff = "-" + name
                else:
                    coeff = f"{coeff}*{name}"
            if coeff[0] == "-":
                parts += (" - ", coeff[1:])
            else:
                parts += (" + ", coeff)
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"HoloPoly({self.n}, {self})"


class HoloMap:
    """A tuple of polynomials in a shared set of variables, with an optional
    positive rational weight per component.

    ``components`` is a tuple of ``HoloPoly``.  ``weights`` is None for a
    plain map, or a tuple of positive ``Fraction``s, one per component, for a
    weighted one, whose squared norm is sum_k w_k |p_k(z)|^2: weights let an
    extraction stay inside Gaussian rationals where a plain map would need
    square roots.  A weighted map keeps its weights even when all are 1, so
    it is written back with them, and it never equals a plain map.  The zero
    polynomial is permitted as a component; rank-type operations treat it as
    contributing nothing.
    """

    __slots__ = ("n", "components", "weights")

    def __init__(self, n: int, components: Sequence[HoloPoly], weights: Sequence | None = None):
        _check_variable_count(n, "map")
        comps = tuple(components)
        for comp in comps:
            if not isinstance(comp, HoloPoly):
                raise TypeError("components must be HoloPoly")
            if comp.n != n:
                raise ValueError("component has wrong variable count")
        if weights is not None:
            # from a list, as HermitianForm builds its basis; a Fraction is kept as
            # it is, and its sign is the sign of its numerator
            weights = tuple([w if w.__class__ is Fraction else _as_fraction(w) for w in weights])
            if len(weights) != len(comps):
                raise ValueError("a weighted map needs one weight per component")
            if any(w.numerator <= 0 for w in weights):
                raise ValueError("weights must be positive")
        self.n = n
        self.components = comps
        self.weights = weights

    @classmethod
    def _build(cls, n: int, components: tuple[HoloPoly, ...], weights=None) -> "HoloMap":
        """A map from a tuple of n-variable polynomials and None or a tuple of
        positive Fractions, one per polynomial, unvalidated."""
        f = object.__new__(cls)
        f.n = n
        f.components = components
        f.weights = weights
        return f

    @classmethod
    def variables(cls, n: int) -> "HoloMap":
        """The identity map (z0, ..., z_{n-1})."""
        return cls(n, [HoloPoly.variable(n, i) for i in range(n)])

    def __len__(self) -> int:
        return len(self.components)

    def weighted_components(self) -> Iterator[tuple[Fraction, HoloPoly]]:
        """(weight, polynomial) pairs; a plain map weights every component by
        one shared Fraction(1).  The squared norm is sum_k weight_k * |poly_k|^2."""
        weights = self.weights
        return zip(repeat(Fraction(1)) if weights is None else weights, self.components)

    @property
    def vanishes_at_zero(self) -> bool:
        return all(comp.vanishes_at_zero for comp in self.components)

    @property
    def max_degree(self) -> int:
        return max((mon.degree for comp in self.components for mon in comp.cells), default=0)

    def evaluate(self, point: Sequence[GaussianRational]) -> list[GaussianRational]:
        """The values of the components, without their weights."""
        point = _exact_point(point, self.n)
        return [comp._evaluate(point) for comp in self.components]

    def __eq__(self, other):
        if not isinstance(other, HoloMap):
            return NotImplemented
        return self.n == other.n and self.components == other.components and self.weights == other.weights

    __hash__ = None

    def __str__(self) -> str:
        """Like (z0, z1) for a plain map, (2*|z0|^2, 1*|z1|^2) for a weighted one."""
        if self.weights is None:
            return "(" + ", ".join(str(c) for c in self.components) + ")"
        return "(" + ", ".join(f"{w}*|{p}|^2" for w, p in zip(self.weights, self.components)) + ")"

    def __repr__(self) -> str:
        return f"HoloMap({self.n}, {self})"


# ---------------------------------------------------------------------------
# map-level operations
# ---------------------------------------------------------------------------


def _check_exponent_vector(exponents: Sequence[int], n: int) -> None:
    """Refuse substitution exponents unless they are a sequence of n ints,
    none a bool or below 0, checked in that order."""
    if not isinstance(exponents, Sequence):
        raise TypeError("substitution exponents must be a sequence")
    if len(exponents) != n:
        raise ValueError("exponent vector has wrong length")
    if not all(_is_int_at_least(a, 0) for a in exponents):
        raise ValueError("substitution exponents must be non-negative integers")


def substitute_powers(f: HoloMap, exponents: Sequence[int]) -> HoloMap:
    """Collapse to one variable by z_i -> w^{a_i}.

    A term c * z^alpha becomes c * w^{sum_i a_i alpha_i}; coefficients of
    colliding images are summed.  The weights of f are kept.
    """
    _check_exponent_vector(exponents, f.n)
    comps = []
    for comp in f.components:
        acc: dict[Monomial, tuple[int, int]] = {}
        for mon, (re, im) in comp.cells.items():
            image = Monomial._build((sum(a * e for a, e in zip(exponents, mon.exponents)),))
            x, y = acc.get(image, (0, 0))
            acc[image] = (x + re, y + im)
        comps.append(HoloPoly._build(1, comp.den, acc))
    return HoloMap(1, comps, f.weights)


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------


def _checked_cells(n: int, mons: Sequence, raw: Iterable) -> tuple[int, dict]:
    """The denominator and nonzero Gaussian-integer cells of the Gram entries
    ((i, j), value) in raw over the basis mons, after the checks the form
    constructors share, in this order: every basis entry is a Monomial of n
    variables, every value is an exact scalar, and the cells are Hermitian."""
    for mon in mons:
        if not isinstance(mon, Monomial):
            raise TypeError("basis entries must be Monomial")
        if mon.n != n:
            raise ValueError("basis monomial has wrong variable count")
    values = {}
    for key, entry in raw:
        value = _scalar(entry)
        if value is None:
            raise TypeError("gram entries must be exact rationals")
        if value[0] or value[2]:
            values[key] = value
    den, cells = _common_den(values)
    _check_hermitian(cells)
    return den, cells


def _check_square(basis: Iterable, gram: Iterable[Iterable]) -> tuple[list, list]:
    """The basis and the rows of a dense Gram matrix as lists, refused unless
    the basis, the gram and each row are iterable, the basis monomials are
    distinct and the rows make a square over them, checked in that order.
    The dense constructor's check; the form reader makes the last two on the
    lists it has read, with the same messages."""
    if not isinstance(basis, Iterable):
        raise TypeError("basis must be a sequence of monomials")
    if not isinstance(gram, Iterable):
        raise TypeError("gram must be a sequence of rows")
    mons, rows = list(basis), list(gram)
    if not all(isinstance(row, Iterable) for row in rows):
        raise TypeError("gram must be a sequence of rows")
    rows = [list(row) for row in rows]
    size = len(mons)
    if len(set(mons)) != size:
        raise ValueError("basis monomials must be distinct")
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError("gram matrix shape does not match the basis")
    return mons, rows


def _check_hermitian(cells: Mapping[tuple[int, int], tuple[int, int]]) -> None:
    """Refuse Gaussian-integer cells over one denominator unless cell (j, i)
    is the conjugate of cell (i, j) for every nonzero cell."""
    for (i, j), (re, im) in cells.items():
        if cells.get((j, i)) != (re, -im):
            raise ValueError("gram matrix is not Hermitian")


def _add_cells(acc, cells, move, scale: int) -> None:
    """Add scale * cells into acc, with each index i re-keyed to move[i]."""
    for (i, j), (re, im) in cells.items():
        key = (move[i], move[j])
        old_re, old_im = acc.get(key, (0, 0))
        acc[key] = (old_re + scale * re, old_im + scale * im)


class HermitianForm:
    """a(z, zbar) = sum over basis pairs of G[i][j] * z^{b_i} * zbar^{b_j}.

    The representation is sparse and canonical.  ``basis`` is grlex-sorted
    and holds only monomials with a nonzero row (Hermitian symmetry makes
    row and column support coincide).  ``cells`` maps the basis index pair
    (i, j) of each nonzero entry to Gaussian-integer numerators (re, im)
    over one positive denominator ``den``, so that G[i][j] = (re + im*i) / den,
    and gcd(den, every numerator) = 1.  As a consequence ``==`` is both
    structural and mathematical equality.  ``cells`` is in no particular
    order; ``entries()`` lists it row-major.  Forms are immutable by
    convention; ``gram`` is a dense view built on first use.
    """

    __slots__ = ("n", "basis", "den", "cells", "_gram")

    def __init__(self, n: int, basis: Sequence[Monomial], gram: Sequence[Sequence[object]]):
        """A form from a dense Gram matrix over ``basis``, validated to be Hermitian."""
        _check_variable_count(n)
        mons, rows = _check_square(basis, gram)
        raw = (((i, j), entry) for i, row in enumerate(rows) for j, entry in enumerate(row))
        self._settle(n, mons, *_checked_cells(n, mons, raw))

    def _settle(self, n: int, mons: Sequence[Monomial], den: int, cells) -> None:
        """Set the canonical fields from Gaussian-integer cells over mons at den.

        Zero cells and the rows left empty are dropped, the rows are sorted
        into grlex order, and the common content of den and the numerators
        is divided out.  Rows that are in grlex order already keep their indices.
        """
        den, cells = _lowest_terms(den, cells)
        rows = sorted({i for i, _ in cells}, key=[mon._grlex for mon in mons].__getitem__)
        self.n = n
        self.den = den
        if rows == list(range(len(rows))):
            self.basis = tuple(mons[: len(rows)])
            self.cells = cells
        else:
            new = [0] * len(mons)
            for k, i in enumerate(rows):
                new[i] = k
            # from a list, not a generator: a tuple grown from a generator is resized,
            # and once freed it waits in the free list of its final size (up to 2000
            # per size) until a full garbage collection empties it
            self.basis = tuple([mons[i] for i in rows])
            self.cells = {(new[i], new[j]): cell for (i, j), cell in cells.items()}
        self._gram = None

    @classmethod
    def _build(cls, n: int, mons: Sequence[Monomial], den: int, cells) -> "HermitianForm":
        """A form from Hermitian Gaussian-integer cells over mons at den, unvalidated."""
        form = object.__new__(cls)
        form._settle(n, mons, den, cells)
        return form

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_entries(
        cls, n: int, entries: Mapping[tuple[Monomial, Monomial], object]
    ) -> "HermitianForm":
        """A form from its coefficients keyed by (row, column) monomial.

        Pairs that are absent are zero.
        """
        _check_variable_count(n)
        index: dict[Monomial, int] = {}  # each monomial's basis index, in order of first use
        at = index.setdefault
        raw = [((at(ma, len(index)), at(mb, len(index))), entry) for (ma, mb), entry in entries.items()]
        mons = list(index)
        return cls._build(n, mons, *_checked_cells(n, mons, raw))

    @classmethod
    def zero(cls, n: int) -> "HermitianForm":
        return cls(n, [], [])

    @classmethod
    def constant(cls, n: int, value=1) -> "HermitianForm":
        const = Monomial._build((0,) * n)
        return cls.from_entries(n, {(const, const): value})

    # -- structure ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def gram(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The dense Gram matrix over ``basis``, built once and read-only."""
        if self._gram is None:
            rows = [[GR_ZERO] * self.size for _ in self.basis]
            for (i, j), (re, im) in self.cells.items():
                rows[i][j] = _gaussian(re, im, self.den)
            self._gram = tuple(tuple(row) for row in rows)
        return self._gram

    def entries(self) -> Iterator[tuple[Monomial, Monomial, GaussianRational]]:
        """Iterate the nonzero coefficients as (row monomial, column monomial, value).

        The order is row-major in the grlex order of the basis.
        """
        basis, den = self.basis, self.den
        for (i, j), (re, im) in sorted(self.cells.items()):
            yield basis[i], basis[j], _gaussian(re, im, den)

    def coefficient(self, ma: Monomial, mb: Monomial) -> GaussianRational:
        index = {mon: k for k, mon in enumerate(self.basis)}
        cell = self.cells.get((index.get(ma), index.get(mb)))
        return GR_ZERO if cell is None else _gaussian(*cell, self.den)

    def degrees(self) -> set:
        return {m.degree for m in self.basis}

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Exact value at a point; Hermitian symmetry makes it real."""
        point = _exact_point(point, self.n)
        values = [mon._evaluate(point) for mon in self.basis]
        out = GR_ZERO
        for (i, j), (re, im) in self.cells.items():
            out = out + _gaussian(re, im, self.den) * values[i] * values[j].conjugate()
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        """Sum of forms, accumulated over Gaussian integers at lcm of the denominators."""
        if not isinstance(other, HermitianForm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        den = lcm(self.den, other.den)
        position = {mon: k for k, mon in enumerate(self.basis)}
        move = [position.setdefault(mon, len(position)) for mon in other.basis]
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        _add_cells(acc, self.cells, range(self.size), den // self.den)
        _add_cells(acc, other.cells, move, den // other.den)
        return self._build(self.n, list(position), den, acc)

    def __neg__(self) -> "HermitianForm":
        cells = {key: (-re, -im) for key, (re, im) in self.cells.items()}
        return self._build(self.n, self.basis, self.den, cells)

    def __mul__(self, other):
        """Product of forms by Gram convolution.

        (AB)[c][d] = sum over a+a'=c, b+b'=d of A[a][b] * B[a'][b'],
        accumulated over Gaussian integers at the denominator den(A) * den(B).
        """
        if not isinstance(other, HermitianForm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        # product[i][k] indexes basis_A[i] * basis_B[k] among the distinct
        # product monomials, each built once
        position: dict[tuple[int, ...], int] = {}
        mons: list[Monomial] = []
        product = []
        for ma in self.basis:
            row = []
            for mb in other.basis:
                exps = tuple(map(add, ma.exponents, mb.exponents))
                k = position.get(exps)
                if k is None:
                    k = position[exps] = len(mons)
                    mons.append(Monomial._build(exps))
                row.append(k)
            product.append(row)
        right = [(k, t, b_re, b_im) for (k, t), (b_re, b_im) in other.cells.items()]
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j), (a_re, a_im) in self.cells.items():
            row_i, row_j = product[i], product[j]
            for k, t, b_re, b_im in right:
                key = (row_i[k], row_j[t])
                re = a_re * b_re - a_im * b_im
                im = a_re * b_im + a_im * b_re
                old = acc.get(key)
                acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return self._build(self.n, mons, self.den * other.den, acc)

    def __pow__(self, t: int) -> "HermitianForm":
        if not _is_int_at_least(t, 1):
            raise ValueError("form powers require a positive integer exponent")
        out = self
        for _ in range(t - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.den == other.den
            and self.basis == other.basis
            and self.cells == other.cells
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.basis:
            return "0"
        parts = []
        for ma, mb, val in self.entries():
            if ma == mb:
                square = "1" if ma.is_constant else f"|{ma}|^2"
                parts.append(f"{val}*{square}" if val != GR_ONE else square)
            else:
                parts.append(f"{val}*{ma}*conj({mb})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HermitianForm(n={self.n}, size={self.size})"


def _outer_sum(size: int, columns) -> dict[tuple[int, int], tuple[int, int]]:
    """The nonzero Hermitian cells of sum s * c c^H over the (s, c) in ``columns``.

    Each s is an integer and each c a sparse Gaussian-integer vector, a list of
    (index, re, im) in ascending index order with every index below ``size``.
    The upper triangle is summed and mirrored, and read out in one loop; if no
    c is complex it is summed as one int a cell, and every row of imaginary
    parts is one shared row of zeros.
    """
    real = not any(a_im for _, column in columns for _, _, a_im in column)
    re = [[0] * size for _ in range(size)]
    im = [[0] * size] * size if real else [[0] * size for _ in range(size)]
    for s, column in columns:
        for p, (i, a_re, a_im) in enumerate(column):
            s_re, re_i = s * a_re, re[i]
            if real:
                for j, b_re, _ in column[p:]:
                    re_i[j] += s_re * b_re
                continue
            s_im, im_i = s * a_im, im[i]
            for j, b_re, b_im in column[p:]:
                re_i[j] += s_re * b_re + s_im * b_im  # s * a_i * conj(a_j)
                im_i[j] += s_im * b_re - s_re * b_im
    cells = {}
    for i, (re_i, im_i) in enumerate(zip(re, im)):
        for j in range(i, size):
            x, y = re_i[j], im_i[j]
            if x or y:
                cells[i, j] = (x, y)
                cells[j, i] = (x, -y)
    return cells


def norm_form(f: HoloMap) -> HermitianForm:
    """The squared norm of a map as a Hermitian form.

    The Gram matrix is sum_k w_k * c_k * c_k^H over the coefficient vectors
    c_k and the weights w_k of the components (each 1 in a plain map), hence
    positive semidefinite by construction.
    """
    return HermitianForm._build(f.n, *_norm_cells(f))


def _norm_cells(f: HoloMap) -> tuple[list[Monomial], int, dict[tuple[int, int], tuple[int, int]]]:
    """The grlex-sorted support of f, a denominator and the nonzero Hermitian
    Gaussian-integer cells of ``norm_form(f)`` over them, not in lowest terms.
    Every monomial of the support has a nonzero row, as the weights are
    positive, so the support is the basis of ``norm_form(f)``."""
    support = sorted({mon for poly in f.components for mon in poly.cells}, key=grlex_key)
    index = {mon: i for i, mon in enumerate(support)}
    # Each component is a Gaussian-integer vector v_k over its denominator
    # q_k, so w_k c_k c_k^H = w_k v_k v_k^H / q_k^2; the sum is accumulated
    # over Z[i] at the lcm of the w_k / q_k^2, each in lowest terms first.
    # A component of ``extract_sos`` has w_k = p_k / (p_{k-1} D) over q_k = p_k,
    # so unreduced the lcm would carry every pivot p_k squared, not once.
    vectors = []
    den = 1
    for weight, poly in f.weighted_components():
        vec = sorted((index[mon], x, y) for mon, (x, y) in poly.cells.items())
        num, scale = weight.numerator, weight.denominator * poly.den * poly.den
        g = gcd(num, scale)
        den = lcm(den, scale // g)
        vectors.append((num // g, scale // g, vec))
    return support, den, _outer_sum(len(support), [(num * (den // scale), vec) for num, scale, vec in vectors])

