"""Isometry identities between squared norms of polynomial maps.

The central identity has the shape

    (1 + ||z||^2)^b * (1 + ||f(z)||^2)^c  ==  (1 + ||h(z)||^2)^a

for maps f, h vanishing at the origin.  Given f, b, c the left side is an
explicit Hermitian form; when its non-constant block is positive
semidefinite the exact square extraction produces a witness h with the
minimal number of components, and ``verify_identity`` replays the identity
as an equality of canonical forms, which is exact and certificate-free.

``divide_by_norm`` answers the converse question of when a squared norm
factors through ||z||^2, by solving the coefficient convolution system
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd
from typing import List, Optional, Sequence, Tuple, Union

from .polyalg import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    norm_form,
)
# inertia is unused here but stays importable from this module for callers
# that reach it through hermsos.isometry
from .rankdecomp import (  # noqa: F401
    NotSOSError,
    ScaledMap,
    _affine_block,
    extract_sos,
    inertia,
    reduce_minimal,
)

MapLike = Union[HoloMap, ScaledMap]


class NotNormalizedError(ValueError):
    """The map fails the normalization f(0) = 0."""


class NotMinimalError(ValueError):
    """The map has linearly dependent components."""


def _check_normalized(f: MapLike):
    if not f.vanishes_at_zero:
        raise NotNormalizedError("map must vanish at the origin")


def _check_minimal(f: MapLike):
    pairs = list(f.weighted_components())
    _, rank = reduce_minimal(f)
    if rank != len(pairs):
        raise NotMinimalError("map components must be linearly independent")


@dataclass(frozen=True)
class ModificationSpec:
    """Input data (f, a, b, c) for one modification identity."""

    f: MapLike
    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"exponent {name} must be a positive integer")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError("exponents must have gcd 1")
        _check_normalized(self.f)
        _check_minimal(self.f)

    @property
    def n(self) -> int:
        return self.f.n


def one_plus_norm(f: MapLike) -> HermitianForm:
    """The Hermitian form 1 + ||f||^2."""
    return norm_form(f) + HermitianForm.constant(f.n, 1)


def one_plus_norm_z(n: int) -> HermitianForm:
    """The Hermitian form 1 + ||z||^2 = 1 + sum |z_i|^2."""
    return one_plus_norm(HoloMap.variables(n))


def modification_form(spec: ModificationSpec) -> HermitianForm:
    """The left-hand form (1 + ||z||^2)^b (1 + ||f||^2)^c, expanded exactly."""
    return one_plus_norm_z(spec.n) ** spec.b * one_plus_norm(spec.f) ** spec.c


def solve_h(f: MapLike, b: int, c: int) -> ScaledMap:
    """A minimal map h with 1 + ||h||^2 == (1 + ||z||^2)^b (1 + ||f||^2)^c.

    Requires f normalized (f(0) = 0) and minimal.  The left side expands to
    1 plus a positive semidefinite block, so the extraction always succeeds;
    it returns rank-many components, which is the least possible count.
    """
    spec = ModificationSpec(f, 1, b, c)
    block = _affine_block(modification_form(spec))
    if block is not None:
        try:
            return extract_sos(block)
        except NotSOSError:
            pass
    raise ArithmeticError("expansion lost positivity; this cannot happen")


def verify_identity(f: MapLike, h: MapLike, a: int, b: int, c: int) -> bool:
    """Exact check of (1 + ||z||^2)^b (1 + ||f||^2)^c == (1 + ||h||^2)^a.

    Both sides expand to canonical Hermitian forms; equality of forms is
    structural equality.  Exponents must be positive with gcd 1.
    """
    return not identity_mismatch(f, h, a, b, c)


def identity_mismatch(f: MapLike, h: MapLike, a: int, b: int, c: int) -> List[Tuple[Monomial, Monomial, GaussianRational]]:
    """Nonzero entries of left minus right, for diagnostics; empty iff the identity holds."""
    spec = ModificationSpec(f, a, b, c)
    _check_normalized(h)
    left = modification_form(spec)
    right = one_plus_norm(h) ** a
    return list((left + -right).entries())


def tensor_power_rank(f: MapLike, c: int) -> int:
    """Rank of (1 + ||f||^2)^c - 1 for a normalized minimal map f.

    The block expands over products of at most c components, so the rank e
    satisfies  c*d <= e <= sum_{k=1..c} C(d+k-1, k)  where d = len(f); both
    ends are checked defensively before returning.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError("power must be a positive integer")
    _check_normalized(f)
    _check_minimal(f)
    pairs = list(f.weighted_components())
    d = len(pairs)
    prods: List[Tuple[Fraction, HoloPoly]] = []
    for k in range(1, c + 1):
        scale = Fraction(comb(c, k))
        for combo in combinations_with_replacement(range(d), k):
            weight = scale
            poly = HoloPoly.constant(f.n, 1)
            counts = {i: combo.count(i) for i in set(combo)}
            multi = 1
            total = k
            for i, cnt in counts.items():
                multi *= comb(total, cnt)
                total -= cnt
            weight = weight * multi
            for i in combo:
                wi, pi = pairs[i]
                weight = weight * wi
                poly = poly * pi
            prods.append((weight, poly))
    _, e = reduce_minimal(ScaledMap(f.n, tuple(prods)))
    low, high = c * d, sum(comb(d + k - 1, k) for k in range(1, c + 1))
    if not low <= e <= high:
        raise ArithmeticError("tensor power rank escaped its proven range")
    return e


def divide_by_norm(s: HermitianForm) -> Optional[HermitianForm]:
    """Exact quotient s / ||z||^2 as a Hermitian form, or None.

    s must be bihomogeneous (every basis monomial of one common degree).
    The convolution system (||z||^2 * R)[alpha][beta] = s[alpha][beta]
    decouples over the difference vector alpha - beta; each block is an
    overdetermined linear system with at most one solution, solved exactly.
    Returns None when no exact quotient exists.
    """
    if not s.basis:
        return s
    degs = s.degrees()
    if len(degs) != 1:
        raise ValueError("form must be bihomogeneous")
    d = degs.pop()
    if d == 0:
        return None
    n = s.n

    def shift(exps: Tuple[int, ...], j: int, step: int) -> Tuple[int, ...]:
        return exps[:j] + (exps[j] + step,) + exps[j + 1 :]

    # group the entries by difference vector: block[alpha] = s[alpha][alpha - diff]
    blocks: dict = {}
    for a, b, value in s.entries():
        diff = tuple(x - y for x, y in zip(a.exponents, b.exponents))
        blocks.setdefault(diff, {})[a.exponents] = value
    quotient: dict = {}
    for diff in sorted(blocks):
        block = blocks[diff]
        # In one block the system is the polynomial identity
        # p = (x_0 + ... + x_{n-1}) * r in the row exponents.  By Ostrowski's
        # theorem Newt(p) = simplex + Newt(r), so the exponent of x_i in r
        # lies in [lo_i, hi_i - 1] (in [lo_i - 1, hi_i - 1] when n = 1), with
        # lo_i and hi_i the extremes of that exponent over the support of p.
        box = []
        for i in range(n):
            column = [exps[i] for exps in block]
            box.append((min(column) - (n == 1), max(column) - 1))
        unknowns = _exponents_in_box(box, d - 1)
        if not unknowns:
            return None
        col = {ga: idx for idx, ga in enumerate(unknowns)}
        equations = set(block)
        equations.update(shift(ga, j, 1) for ga in unknowns for j in range(n))
        rows: List[List[GaussianRational]] = []
        rhs: List[GaussianRational] = []
        for sa in sorted(equations, key=lambda e: tuple(-x for x in e)):
            row = [GR_ZERO] * len(unknowns)
            for j in range(n):
                idx = col.get(shift(sa, j, -1)) if sa[j] else None
                if idx is not None:
                    row[idx] = GR_ONE
            value = block.get(sa, GR_ZERO)
            if not any(row):
                if value:
                    return None
                continue
            rows.append(row)
            rhs.append(value)
        solution = _solve_linear(rows, rhs)
        if solution is None:
            return None
        for ga, value in zip(unknowns, solution):
            if value:
                gb = tuple(x - y for x, y in zip(ga, diff))
                quotient[(Monomial(ga), Monomial(gb))] = value
    r = HermitianForm.from_entries(n, quotient)
    # defensive recomposition; the block solves are individually exact,
    # but this guards the assembly across blocks
    one_norm = norm_form(HoloMap.variables(n))
    if one_norm * r != s:
        return None
    return r


def _exponents_in_box(box: Sequence[Tuple[int, int]], total: int) -> List[Tuple[int, ...]]:
    """Exponent vectors e of degree total with lo_i <= e_i <= hi_i, in grlex order."""
    *head, (lo, hi) = box
    out = []
    for first in product(*(range(high, low - 1, -1) for low, high in head)):
        last = total - sum(first)
        if lo <= last <= hi:
            out.append(first + (last,))
    return out


def _solve_linear(
    rows: List[List[GaussianRational]], rhs: List[GaussianRational]
) -> Optional[List[GaussianRational]]:
    """Solve an exact linear system with a unique candidate solution.

    Returns None when inconsistent.  Raises if a free column survives,
    which the callers' systems never produce.
    """
    m = len(rows)
    width = len(rows[0]) if m else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    r = 0
    pivots = []
    for c in range(width):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = GR_ONE / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][width]:
            return None
    if len(pivots) != width:
        raise ArithmeticError("underdetermined block; the divisor is a nonzerodivisor")
    out = [GR_ZERO] * width
    for i, c in enumerate(pivots):
        out[c] = aug[i][width]
    return out


def r_lambda(lam) -> HermitianForm:
    """One-variable family diag(1, 4, 6 - lam, 4, 1) on basis 1, z, z^2, z^3, z^4.

    At lam = 0 this is (1 + |z|^2)^4 restricted to its diagonal; the family
    stays a squared norm exactly while lam <= 6.
    """
    lam = Fraction(lam)
    coeffs = [Fraction(1), Fraction(4), Fraction(6) - lam, Fraction(4), Fraction(1)]
    entries = {}
    for k, value in enumerate(coeffs):
        if value:
            mon = Monomial((k,))
            entries[(mon, mon)] = value
    return HermitianForm.from_entries(1, entries)
