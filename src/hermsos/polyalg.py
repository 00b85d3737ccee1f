"""Exact arithmetic for holomorphic polynomial maps and Hermitian squared-norm forms.

Scalars are Gaussian rationals: complex numbers whose real and imaginary parts
are arbitrary-precision rationals.  Everything built on top of them
(polynomial products, Gram matrices, rank and inertia computations) is
therefore exact, and equality of two forms is a decidable, tolerance-free
question.  Floats are rejected at the boundary.

The objects:

  * ``Monomial``       an exponent vector, z^a = z0^{a_0} * ... * z_{n-1}^{a_{n-1}}
  * ``HoloPoly``       a sparse polynomial, a finite Monomial -> coefficient map
  * ``HoloMap``        a tuple of polynomials f = (f_1, ..., f_p) sharing n variables
  * ``HermitianForm``  a Hermitian coefficient matrix over a monomial basis,
                       representing a(z, zbar) = sum_{a,b} G[a][b] z^a zbar^b,
                       stored sparse as Gaussian-integer numerators of its
                       nonzero entries over one common denominator

The squared norm ||f||^2 = sum_k |f_k(z)|^2 of a map is such a form
(``norm_form``), and products of forms are computed by exact Gram
convolution over the Gaussian integers.  Monomial bases, tensor
components, and printed output all follow one global graded lexicographic
order, so every result is deterministic and structural equality of
canonical forms coincides with mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union


def _as_fraction(value) -> Fraction:
    """Coerce to an exact rational.  Floats are deliberately not accepted."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @property
    def is_real(self) -> bool:
        return not self.im

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
        if not isinstance(k, int) or k < 0:
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
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


@dataclass(frozen=True)
class Monomial:
    """An exponent vector; the number of variables is its length."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exps):
            raise ValueError("exponents must be non-negative integers")
        object.__setattr__(self, "exponents", exps)

    @cached_property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def mul(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        out = GR_ONE
        for value, exp in zip(point, self.exponents):
            if exp:
                out = out * (_coerce(value) ** exp)
        return out

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"z{i}")
            elif e > 1:
                parts.append(f"z{i}^{e}")
        return "*".join(parts) if parts else "1"


def grlex_key(mon: Monomial):
    """Sort key for the global graded lexicographic order (z0 before z1)."""
    return (mon.degree, tuple(-e for e in mon.exponents))


def monomials_of_degree(n: int, d: int) -> List[Monomial]:
    """All monomials in n variables of total degree exactly d, grlex-ordered."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be non-negative")

    def gen(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(total - first, parts - 1):
                yield (first,) + rest

    return [Monomial(t) for t in gen(d, n)]


def monomials_up_to_degree(n: int, d: int) -> List[Monomial]:
    """All monomials in n variables of total degree at most d, grlex-ordered."""
    out: List[Monomial] = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(n, k))
    return out


class HoloPoly:
    """A sparse holomorphic polynomial with Gaussian-rational coefficients.

    Zero coefficients are dropped at construction, so ``terms`` never stores
    a zero and two polynomials are equal iff their term maps are equal.
    Instances are immutable by convention.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, object] | None = None):
        if not isinstance(n, int) or n < 1:
            raise ValueError("a polynomial needs a positive variable count")
        clean: Dict[Monomial, GaussianRational] = {}
        for mon, coeff in (terms or {}).items():
            if not isinstance(mon, Monomial):
                raise TypeError("term keys must be Monomial")
            if mon.n != n:
                raise ValueError("monomial has wrong variable count")
            value = _coerce(coeff)
            if value is None:
                raise TypeError("coefficients must be exact rationals")
            if value:
                clean[mon] = value
        self.n = n
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "HoloPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "HoloPoly":
        return cls(n, {Monomial((0,) * n): value})

    @classmethod
    def variable(cls, n: int, i: int) -> "HoloPoly":
        if not 0 <= i < n:
            raise ValueError("variable index out of range")
        exps = [0] * n
        exps[i] = 1
        return cls(n, {Monomial(tuple(exps)): GR_ONE})

    @classmethod
    def monomial(cls, n: int, exponents: Sequence[int], coeff=1) -> "HoloPoly":
        return cls(n, {Monomial(tuple(exponents)): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((m.degree for m in self.terms), default=0)

    @property
    def is_homogeneous(self) -> bool:
        return len({m.degree for m in self.terms}) <= 1

    def constant_term(self) -> GaussianRational:
        return self.terms.get(Monomial((0,) * self.n), GR_ZERO)

    @property
    def vanishes_at_zero(self) -> bool:
        return not self.constant_term()

    def sorted_terms(self) -> List[Tuple[Monomial, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic ---------------------------------------------------------

    def _check_same_n(self, other: "HoloPoly"):
        if self.n != other.n:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        self._check_same_n(other)
        acc = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc[mon] = acc.get(mon, GR_ZERO) + coeff
        return HoloPoly(self.n, acc)

    def __sub__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "HoloPoly":
        return HoloPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HoloPoly):
            self._check_same_n(other)
            acc: Dict[Monomial, GaussianRational] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    key = ma.mul(mb)
                    acc[key] = acc.get(key, GR_ZERO) + ca * cb
            return HoloPoly(self.n, acc)
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return HoloPoly(self.n, {m: c * scalar for m, c in self.terms.items()})

    def __rmul__(self, other):
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, k: int) -> "HoloPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = HoloPoly.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def truncate(self, d: int) -> "HoloPoly":
        """Drop every term of total degree above d."""
        if d < 0:
            raise ValueError("truncation degree must be non-negative")
        return HoloPoly(self.n, {m: c for m, c in self.terms.items() if m.degree <= d})

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        if len(point) != self.n:
            raise ValueError("point has wrong dimension")
        out = GR_ZERO
        for mon, coeff in self.terms.items():
            out = out + coeff * mon.evaluate(point)
        return out

    def __eq__(self, other):
        if not isinstance(other, HoloPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mon, coeff in self.sorted_terms():
            if mon.is_constant:
                parts.append(str(coeff))
            elif coeff == GR_ONE:
                parts.append(str(mon))
            elif coeff == -GR_ONE:
                parts.append(f"-{mon}")
            elif coeff.re and coeff.im:
                parts.append(f"({coeff})*{mon}")
            else:
                parts.append(f"{coeff}*{mon}")
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    def __repr__(self) -> str:
        return f"HoloPoly({self.n}, {self})"


class HoloMap:
    """A tuple of polynomials in a shared set of variables.

    The zero polynomial is permitted as a component only transiently
    (e.g. right after truncation); rank-type operations treat it as
    contributing nothing.
    """

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Sequence[HoloPoly]):
        if not isinstance(n, int) or n < 1:
            raise ValueError("a map needs a positive variable count")
        comps = tuple(components)
        for comp in comps:
            if not isinstance(comp, HoloPoly):
                raise TypeError("components must be HoloPoly")
            if comp.n != n:
                raise ValueError("component has wrong variable count")
        self.n = n
        self.components = comps

    @classmethod
    def variables(cls, n: int) -> "HoloMap":
        """The identity map (z0, ..., z_{n-1})."""
        return cls(n, [HoloPoly.variable(n, i) for i in range(n)])

    def __len__(self) -> int:
        return len(self.components)

    def weighted_components(self) -> Iterator[Tuple[Fraction, HoloPoly]]:
        """Uniform view shared with scaled maps: (weight, polynomial) pairs.

        A plain map has every weight equal to 1; the squared norm is
        sum_k weight_k * |poly_k|^2.
        """
        one = Fraction(1)
        return ((one, comp) for comp in self.components)

    @property
    def vanishes_at_zero(self) -> bool:
        return all(comp.vanishes_at_zero for comp in self.components)

    @property
    def max_degree(self) -> int:
        return max((comp.degree for comp in self.components), default=0)

    def evaluate(self, point: Sequence[GaussianRational]) -> List[GaussianRational]:
        return [comp.evaluate(point) for comp in self.components]

    def __eq__(self, other):
        if not isinstance(other, HoloMap):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    __hash__ = None

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"HoloMap({self.n}, {self})"


# ---------------------------------------------------------------------------
# map-level operations
# ---------------------------------------------------------------------------


def tensor(f: HoloMap, g: HoloMap) -> HoloMap:
    """Componentwise product map (f_i * g_j), ordered lexicographically in (i, j)."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    comps = [fi * gj for fi in f.components for gj in g.components]
    return HoloMap(f.n, comps)


def oplus(f: HoloMap, g: HoloMap) -> HoloMap:
    """Concatenation (f_1, ..., f_p, g_1, ..., g_q)."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    return HoloMap(f.n, f.components + g.components)


def homogenize_map(f: HoloMap, d: int) -> HoloMap:
    """Homogenize to degree d with a new leading variable.

    Component f_i(z) becomes z0^d * f_i(z1/z0, ..., zn/z0) in n+1 variables;
    the homogenizing variable sits at index 0.  Requires d at least the
    maximum component degree.
    """
    if d < f.max_degree:
        raise ValueError("homogenization degree is below the maximum component degree")
    comps = []
    for comp in f.components:
        terms = {
            Monomial((d - mon.degree,) + mon.exponents): coeff
            for mon, coeff in comp.terms.items()
        }
        comps.append(HoloPoly(f.n + 1, terms))
    return HoloMap(f.n + 1, comps)


def dehomogenize_map(big_f: HoloMap) -> HoloMap:
    """Set the leading variable to 1 and drop it.

    Requires every nonzero component to be homogeneous of one common degree,
    so the operation inverts ``homogenize_map`` exactly.
    """
    if big_f.n < 2:
        raise ValueError("need at least two variables to dehomogenize")
    degrees = {
        mon.degree for comp in big_f.components for mon in comp.terms
    }
    if len(degrees) > 1:
        raise ValueError("map is not homogeneous of a common degree")
    comps = []
    for comp in big_f.components:
        terms = {Monomial(mon.exponents[1:]): coeff for mon, coeff in comp.terms.items()}
        comps.append(HoloPoly(big_f.n - 1, terms))
    return HoloMap(big_f.n - 1, comps)


def truncate_map(f: HoloMap, d: int) -> HoloMap:
    """Truncate every component to total degree at most d.  Idempotent."""
    return HoloMap(f.n, [comp.truncate(d) for comp in f.components])


def substitute_powers(f: HoloMap, exponents: Sequence[int]) -> HoloMap:
    """Collapse to one variable by z_i -> w^{a_i}.

    A term c * z^alpha becomes c * w^{sum_i a_i alpha_i}; coefficients of
    colliding images are summed.
    """
    if len(exponents) != f.n:
        raise ValueError("exponent vector has wrong length")
    if any(not isinstance(a, int) or a < 0 for a in exponents):
        raise ValueError("substitution exponents must be non-negative integers")
    comps = []
    for comp in f.components:
        acc: Dict[Monomial, GaussianRational] = {}
        for mon, coeff in comp.terms.items():
            image = Monomial((sum(a * e for a, e in zip(exponents, mon.exponents)),))
            acc[image] = acc.get(image, GR_ZERO) + coeff
        comps.append(HoloPoly(1, acc))
    return HoloMap(1, comps)


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------


def _check_variable_count(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("a form needs a positive variable count")


def _check_monomial(mon, n: int) -> None:
    if not isinstance(mon, Monomial) or mon.n != n:
        raise ValueError("basis monomial has wrong variable count")


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _integer_terms(values: Mapping) -> Tuple[int, dict]:
    """The least common denominator q of the values, and each key's
    Gaussian-integer numerator (re, im) over q."""
    q = 1
    for value in values.values():
        q = lcm(q, value.re.denominator, value.im.denominator)
    terms = {
        key: (
            value.re.numerator * (q // value.re.denominator),
            value.im.numerator * (q // value.im.denominator),
        )
        for key, value in values.items()
    }
    return q, terms


def _exact_cells(values: Mapping[Tuple[int, int], GaussianRational]):
    """Check Hermitian symmetry of nonzero cells; return ``_integer_terms(values)``."""
    for (i, j), value in values.items():
        if values.get((j, i), GR_ZERO) != value.conjugate():
            raise ValueError("gram matrix is not Hermitian")
    return _integer_terms(values)


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
    (i, j) of each nonzero entry, in row-major order, to Gaussian-integer
    numerators (re, im) over one positive denominator ``den``, so that
    G[i][j] = (re + im*i) / den, and gcd(den, every numerator) = 1.  As a
    consequence ``==`` is both structural and mathematical equality.  Forms
    are immutable by convention; ``gram`` is a dense view built on first use.
    """

    __slots__ = ("n", "basis", "den", "cells", "_index", "_gram")

    def __init__(self, n: int, basis: Sequence[Monomial], gram: Sequence[Sequence[object]]):
        """A form from a dense Gram matrix over ``basis``, validated to be Hermitian."""
        _check_variable_count(n)
        mons = list(basis)
        size = len(mons)
        if len(set(mons)) != size:
            raise ValueError("basis monomials must be distinct")
        for mon in mons:
            _check_monomial(mon, n)
        rows = [list(row) for row in gram]
        if len(rows) != size or any(len(row) != size for row in rows):
            raise ValueError("gram matrix shape does not match the basis")
        values = {}
        for i, row in enumerate(rows):
            for j, raw in enumerate(row):
                value = _coerce(raw)
                if value is None:
                    raise TypeError("gram entries must be exact rationals")
                if value:
                    values[(i, j)] = value
        self._settle(n, mons, *_exact_cells(values))

    def _settle(self, n: int, mons: Sequence[Monomial], den: int, cells) -> None:
        """Set the canonical fields from Gaussian-integer cells over mons at den.

        Zero cells and the rows left empty are dropped, the rows are sorted
        into grlex order, and the common content of den and the numerators
        is divided out.
        """
        cells = {key: cell for key, cell in cells.items() if cell[0] or cell[1]}
        g = den
        for re, im in cells.values():
            if g == 1:
                break
            g = gcd(g, re, im)
        rows = sorted({i for i, _ in cells}, key=lambda i: grlex_key(mons[i]))
        new = [0] * len(mons)
        for k, i in enumerate(rows):
            new[i] = k
        if g != 1:
            cells = {key: (re // g, im // g) for key, (re, im) in cells.items()}
        self.n = n
        # from a list, not a generator: a tuple grown from a generator is resized,
        # and once freed it waits in the free list of its final size (up to 2000
        # per size) until a full garbage collection empties it
        self.basis = tuple([mons[i] for i in rows])
        self.den = den // g
        self.cells = dict(sorted(((new[i], new[j]), cell) for (i, j), cell in cells.items()))
        self._index = {mon: k for k, mon in enumerate(self.basis)}
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
        cls, n: int, entries: Mapping[Tuple[Monomial, Monomial], object]
    ) -> "HermitianForm":
        """A form from its coefficients keyed by (row, column) monomial.

        Pairs that are absent are zero.
        """
        _check_variable_count(n)
        index: Dict[Monomial, int] = {}
        values = {}
        for (ma, mb), raw in entries.items():
            for mon in (ma, mb):
                if mon not in index:
                    _check_monomial(mon, n)
                    index[mon] = len(index)
            value = _coerce(raw)
            if value is None:
                raise TypeError("gram entries must be exact rationals")
            if value:
                values[(index[ma], index[mb])] = value
        return cls._build(n, list(index), *_exact_cells(values))

    @classmethod
    def zero(cls, n: int) -> "HermitianForm":
        return cls(n, [], [])

    @classmethod
    def constant(cls, n: int, value=1) -> "HermitianForm":
        const = Monomial((0,) * n)
        return cls.from_entries(n, {(const, const): value})

    # -- structure ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def gram(self) -> Tuple[Tuple[GaussianRational, ...], ...]:
        """The dense Gram matrix over ``basis``, built once and read-only."""
        if self._gram is None:
            rows = [[GR_ZERO] * self.size for _ in self.basis]
            for (i, j), (re, im) in self.cells.items():
                rows[i][j] = _gaussian(re, im, self.den)
            self._gram = tuple(tuple(row) for row in rows)
        return self._gram

    def entries(self) -> Iterator[Tuple[Monomial, Monomial, GaussianRational]]:
        """Iterate the nonzero coefficients as (row monomial, column monomial, value).

        The order is row-major in the grlex order of the basis.
        """
        basis, den = self.basis, self.den
        for (i, j), (re, im) in self.cells.items():
            yield basis[i], basis[j], _gaussian(re, im, den)

    def coefficient(self, ma: Monomial, mb: Monomial) -> GaussianRational:
        cell = self.cells.get((self._index.get(ma), self._index.get(mb)))
        return GR_ZERO if cell is None else _gaussian(*cell, self.den)

    def constant_coefficient(self) -> GaussianRational:
        const = Monomial((0,) * self.n)
        return self.coefficient(const, const)

    def degrees(self) -> set:
        return {m.degree for m in self.basis}

    def restrict(self, monomials: Iterable[Monomial]) -> "HermitianForm":
        """Principal subform over the given subset of basis monomials."""
        new: Dict[int, int] = {}
        for mon in monomials:
            i = self._index.get(mon)
            if i is not None:
                new.setdefault(i, len(new))
        cells = {
            (new[i], new[j]): cell
            for (i, j), cell in self.cells.items()
            if i in new and j in new
        }
        return self._build(self.n, [self.basis[i] for i in new], self.den, cells)

    def drop_constant(self) -> "HermitianForm":
        """The principal subform without the constant monomial's row and column."""
        return self.restrict(m for m in self.basis if not m.is_constant)

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Exact value at a point; Hermitian symmetry makes it real."""
        if len(point) != self.n:
            raise ValueError("point has wrong dimension")
        values = [mon.evaluate(point) for mon in self.basis]
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
        position = dict(self._index)
        move = [position.setdefault(mon, len(position)) for mon in other.basis]
        acc: Dict[Tuple[int, int], Tuple[int, int]] = {}
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
        position: Dict[Tuple[int, ...], int] = {}
        mons: List[Monomial] = []
        product = []
        for ma in self.basis:
            row = []
            for mb in other.basis:
                exps = tuple(map(add, ma.exponents, mb.exponents))
                k = position.get(exps)
                if k is None:
                    k = position[exps] = len(mons)
                    mons.append(Monomial(exps))
                row.append(k)
            product.append(row)
        right = [(k, t, b_re, b_im) for (k, t), (b_re, b_im) in other.cells.items()]
        acc: Dict[Tuple[int, int], Tuple[int, int]] = {}
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
        if not isinstance(t, int) or t < 1:
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


def norm_form(f) -> HermitianForm:
    """The squared norm of a map as a Hermitian form.

    Accepts anything exposing ``n`` and ``weighted_components()`` (plain maps
    weight every component by 1; scaled maps carry positive rational
    weights): the Gram matrix is sum_k w_k * c_k * c_k^H over the coefficient
    vectors c_k, hence positive semidefinite by construction.
    """
    pairs = list(f.weighted_components())
    support = sorted(
        {mon for _, poly in pairs for mon in poly.terms}, key=grlex_key
    )
    index = {mon: i for i, mon in enumerate(support)}
    size = len(support)
    # Each component becomes a Gaussian-integer vector v_k over one
    # denominator q_k, so w_k c_k c_k^H = w_k v_k v_k^H / q_k^2; the sum is
    # accumulated over Z[i] at the common denominator of all the w_k / q_k^2.
    vectors = []
    den = 1
    for weight, poly in pairs:
        q, terms = _integer_terms(poly.terms)
        vec = [(index[mon], x, y) for mon, (x, y) in terms.items()]
        scale = weight.denominator * q * q
        den = lcm(den, scale)
        vectors.append((weight.numerator, scale, vec))
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]
    for num, scale, vec in vectors:
        s = num * (den // scale)
        for i, a_re, a_im in vec:
            s_re, s_im = s * a_re, s * a_im
            re_i, im_i = re[i], im[i]
            for j, b_re, b_im in vec:
                re_i[j] += s_re * b_re + s_im * b_im
                im_i[j] += s_im * b_re - s_re * b_im
    cells = {
        (i, j): (x, y)
        for i, (re_i, im_i) in enumerate(zip(re, im))
        for j, (x, y) in enumerate(zip(re_i, im_i))
        if x or y
    }
    return HermitianForm._build(f.n, support, den, cells)


def homogenize_form(a: HermitianForm, d: int) -> HermitianForm:
    """Homogenize a form to bidegree (d, d) with a new leading variable.

    Basis monomial z^alpha becomes z0^{d-|alpha|} * z^alpha; the Gram matrix
    is unchanged, so inertia is preserved exactly.
    """
    if any(mon.degree > d for mon in a.basis):
        raise ValueError("homogenization degree is below the maximum basis degree")
    basis = [Monomial((d - mon.degree,) + mon.exponents) for mon in a.basis]
    return HermitianForm._build(a.n + 1, basis, a.den, a.cells)


def dehomogenize_form(a: HermitianForm) -> HermitianForm:
    """Set the leading variable to 1 and drop it; colliding entries are summed."""
    if a.n < 2:
        raise ValueError("need at least two variables to dehomogenize")
    position: Dict[Monomial, int] = {}
    move = [position.setdefault(Monomial(mon.exponents[1:]), len(position)) for mon in a.basis]
    acc: Dict[Tuple[int, int], Tuple[int, int]] = {}
    _add_cells(acc, a.cells, move, 1)
    return HermitianForm._build(a.n - 1, list(position), a.den, acc)
