"""Isometry identities between squared norms of polynomial maps.

The central identity has the shape

    (1 + ||z||^2)^b * (1 + ||f(z)||^2)^c  ==  (1 + ||h(z)||^2)^a

for maps f, h vanishing at the origin, each a ``HoloMap``, plain or weighted
(the h of ``solve_h`` is weighted).  Each 1 + ||.||^2 is one norm form,
with the constant 1 as one more component.  Given f, b, c the left side is an
explicit Hermitian form, 1 plus a positive semidefinite block not coupled to
the 1, and ``rankdecomp.affine_split`` reads a witness h with the minimal
number of components off one exact square extraction of the whole form.
``verify_identity`` replays the identity exactly and without a certificate.
With a = 1, the case ``solve_h`` answers, the cells of 1 + ||h||^2 are
compared with the canonical left side by cross-multiplying the
denominators, not reduced to lowest terms first; with a > 1, and whenever
that comparison fails, both sides are canonical forms and equality is
structural.

The left side is built one way, by ``_left_side``, for ``solve_h`` and
``identity_mismatch``: (1 + ||z||^2)^b is a positive diagonal, so the
product is a sum of shifted copies of (1 + ||f||^2)^c, each scaled by a
multinomial, added cell by cell over the shifted basis and settled once.
That basis, built first, is the count ``solve_h`` refuses a large block on.

The data (f, a, b, c) of an identity is passed as plain arguments.
``solve_h`` (with a = 1) and ``identity_mismatch`` check it on entry, in
this order: a, b, c positive, their gcd 1, f normalized, f minimal.
Minimality is the rank of the components, by ``rankdecomp._rank``.

``tensor_power_rank`` gives the rank of (1 + ||f||^2)^c - 1 as the dimension
of the span of the products of at most c components, by ``rankdecomp._rank``
as minimality is.
``divide_by_norm`` answers the converse question of when a squared norm
factors through ||z||^2 by exact polynomial division by z_0 + ... + z_{n-1},
one block of the Gram matrix at a time; it needs no elimination.

``r_lambda``, ``extremal_lower`` and ``extremal_power_lower`` build the
example family and the maps that attain the lower bounds of ``bounds``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .bounds import _power_sum, _require_positive
from .polyalg import (
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    _add_cells,
    _as_fraction,
    _is_int_at_least,
    _largest_exponent,
    _mul_cells,
    _norm_cells,
    _packed,
    norm_form,
)
# inertia is unused here; perfbench/test_perfbench.py reads it as
# hermsos.isometry.inertia
from .rankdecomp import _rank, affine_split, inertia  # noqa: F401


class NotNormalizedError(ValueError):
    """The map fails the normalization f(0) = 0."""


class NotMinimalError(ValueError):
    """The map has linearly dependent components."""


def _check_normalized(f: HoloMap):
    if not f.vanishes_at_zero:
        raise NotNormalizedError("map must vanish at the origin")


def _check_minimal(f: HoloMap):
    """Refuse f unless its components are linearly independent, that is,
    unless their rank by ``_rank`` is their count."""
    if _rank([poly.cells for poly in f.components]) != len(f):
        raise NotMinimalError("map components must be linearly independent")


def _check_identity(f: HoloMap, a: int, b: int, c: int):
    """The data (f, a, b, c) of one modification identity: positive exponents
    with gcd 1, then f normalized and minimal, checked in that order."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not _is_int_at_least(value, 1):
            raise ValueError(f"exponent {name} must be a positive integer")
    if gcd(gcd(a, b), c) != 1:
        raise ValueError("exponents must have gcd 1")
    _check_normalized(f)
    _check_minimal(f)


def one_plus_norm(f: HoloMap) -> HermitianForm:
    """The Hermitian form 1 + ||f||^2: the norm form of f with the constant 1 as
    one more component of weight 1, so the 1 needs no second pass over the form."""
    return norm_form(_with_one(f))


def _with_one(f: HoloMap) -> HoloMap:
    """The map (1, f), with weight 1 on the 1 if f is weighted.  f is a checked
    map, so the constant and the longer map are built unchecked."""
    one = HoloPoly._build(f.n, 1, {Monomial._build((0,) * f.n): (1, 0)})
    weights = None if f.weights is None else (Fraction(1), *f.weights)
    return HoloMap._build(f.n, (one, *f.components), weights)


def _unit_diagonal(n: int) -> HermitianForm:
    """||z||^2, the unit diagonal over z_0, ..., z_{n-1}, built from its
    cells, unchecked."""
    mons = [Monomial._build((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]
    return HermitianForm._build(n, mons, 1, {(k, k): (1, 0) for k in range(n)})


def _left_side(f: HoloMap, b: int, c: int, block_max: Optional[int] = None) -> HermitianForm:
    """(1 + ||z||^2)^b R with R = (1 + ||f||^2)^c, expanded from the cells
    ``_norm_cells(_with_one(f))`` of 1 + ||f||^2; R is those cells
    themselves when c = 1.

    (1 + ||z||^2)^b is the positive diagonal sum over |alpha| <= b of
    mult(b; alpha) |z^alpha|^2, mult(b; alpha) = b! / (alpha! (b - |alpha|)!),
    so the product is the sum of the copies z^alpha R zbar^alpha, each scaled
    by its multinomial: R's cells re-keyed to the shifted basis and added,
    and the sum settled once.  Every basis monomial of R has a positive
    diagonal entry, so every shifted monomial has one in the sum: the shifted
    basis, built first, is the product's basis, and a block (the basis
    without the constant) of more than block_max monomials raises ValueError
    before any cell is added.  Each alpha is read off a non-decreasing
    q in [0, b]^n as the successive differences of (0, *q).
    """
    n, one_plus = f.n, _norm_cells(_with_one(f))
    if c == 1:
        base, den, cells = one_plus
    else:
        power = HermitianForm._build(n, *one_plus) ** c
        base, den, cells = power.basis, power.den, power.cells
    exponents = [mon.exponents for mon in base]
    alphas = [tuple(map(sub, q, (0, *q))) for q in combinations_with_replacement(range(b + 1), n)]
    position: Dict[Tuple[int, ...], int] = {}
    at = position.setdefault
    # the product's basis index of each shifted monomial, len(exponents) of them per alpha
    moves = [at(tuple(map(add, exps, alpha)), len(position)) for alpha in alphas for exps in exponents]
    size = len(position) - 1
    if block_max is not None and size > block_max:
        raise ValueError(f"solving for h would eliminate a block of {size} basis monomials; the limit is {block_max}")
    acc: Dict[Tuple[int, int], Tuple[int, int]] = {}
    b_factorial, m = factorial(b), len(exponents)
    for k, alpha in enumerate(alphas):
        mult = b_factorial // factorial(b - sum(alpha))
        for e in alpha:
            mult //= factorial(e)
        _add_cells(acc, cells, moves[k * m : (k + 1) * m], mult)
    return HermitianForm._build(n, [Monomial._build(exps) for exps in position], den, acc)


def solve_h(f: HoloMap, b: int, c: int, block_max: Optional[int] = None) -> HoloMap:
    """A minimal map h with 1 + ||h||^2 == (1 + ||z||^2)^b (1 + ||f||^2)^c.

    Requires f normalized (f(0) = 0) and minimal.  The left side is 1 plus
    a positive semidefinite block not coupled to the 1, so ``affine_split``
    of the whole form always returns h, rank-many components, the least
    possible count.  A block of more than ``block_max`` basis monomials
    besides the constant raises ValueError, counted on the product's basis
    before any of its cells is added.
    """
    _check_identity(f, 1, b, c)
    h = affine_split(_left_side(f, b, c, block_max))
    if h is None:
        raise ArithmeticError("expansion lost positivity; this cannot happen")
    return h


def verify_identity(f: HoloMap, h: HoloMap, a: int, b: int, c: int) -> bool:
    """Exact check of (1 + ||z||^2)^b (1 + ||f||^2)^c == (1 + ||h||^2)^a.

    Exponents must be positive with gcd 1.  ``identity_mismatch`` decides it.
    """
    return not identity_mismatch(f, h, a, b, c)


def identity_mismatch(f: HoloMap, h: HoloMap, a: int, b: int, c: int) -> List[Tuple[Monomial, Monomial, GaussianRational]]:
    """Nonzero entries of left minus right, for diagnostics; empty iff the identity holds.

    With a = 1 the right side 1 + ||h||^2 is not brought to lowest terms
    first: its unreduced cells are compared with the canonical left side by
    ``_equals_unreduced``, and only when that finds a difference is the
    canonical right side built from them, which decides through ``==`` and
    lists the mismatch.  With a > 1 both sides are canonical forms.
    """
    _check_identity(f, a, b, c)
    _check_normalized(h)
    if f.n != h.n:
        raise ValueError("variable count mismatch")
    left = _left_side(f, b, c)
    if a == 1:
        support, den, cells = _norm_cells(_with_one(h))
        if _equals_unreduced(left, support, den, cells):
            return []
        right = HermitianForm._build(h.n, support, den, cells)
    else:
        right = one_plus_norm(h) ** a
    return [] if left == right else list((left + -right).entries())


def _equals_unreduced(form: HermitianForm, support: List[Monomial], den: int, cells) -> bool:
    """Whether the nonzero Hermitian cells over support at den are those of
    form, without reducing them: the support must be form's basis, and every
    cell (re, im) must cross-multiply to form's, form.den * (re, im) ==
    den * cell.  Each product is of a large and a small integer, and no gcd,
    division or sort is taken.  It can say no to an equal form only if the
    support has a zero row, which a norm form's has not."""
    if len(cells) != len(form.cells) or tuple(support) != form.basis:
        return False
    d, get = form.den, form.cells.get
    for key, (re, im) in cells.items():
        other = get(key)
        if other is None or d * re != den * other[0] or d * im != den * other[1]:
            return False
    return True


def tensor_power_rank(f: HoloMap, c: int) -> int:
    """Rank of (1 + ||f||^2)^c - 1 for a normalized minimal map f.

    The block is the squared norm of the weighted products of at most c
    components, so its rank is the dimension of their span.  Positive
    weights never change a span, so the products are formed without them,
    over the Gaussian integers (each component scaled by its denominator),
    each k-fold product once as its (k-1)-fold prefix times one component,
    keyed by exponents packed in base c * (largest exponent of f) + 1, and
    ranked by ``_rank``: mod a prime when that reaches min(products,
    monomials), else exactly by the smaller Gram matrix.  The rank e satisfies
    c*d <= e <= sum_{k=1..c} C(d+k-1, k)  where d = len(f); both ends are
    checked defensively before returning.
    """
    if not _is_int_at_least(c, 1):
        raise ValueError("power must be a positive integer")
    _check_normalized(f)
    _check_minimal(f)
    base = c * _largest_exponent(f.components) + 1
    comps = [_packed(poly, base) for poly in f.components]
    d = len(comps)
    # the products of k components with non-decreasing indices, each with its last index
    level = [(0, {0: (1, 0)})]
    rows = []
    for _ in range(c):
        level = [(j, _mul_cells(prod, comps[j])) for last, prod in level for j in range(last, d)]
        rows += [prod for _, prod in level]
    e = _rank(rows)
    low, high = c * d, _power_sum(d, c)
    if not low <= e <= high:
        raise ArithmeticError("tensor power rank escaped its proven range")
    return e


def divide_by_norm(s: HermitianForm) -> Optional[HermitianForm]:
    """Exact quotient s / ||z||^2 as a Hermitian form, or None.

    s must be bihomogeneous (every basis monomial of one common degree).
    (||z||^2 * R)[alpha][beta] = s[alpha][beta] decouples over the difference
    vector alpha - beta: each block says p = (x_0 + ... + x_{n-1}) * r, with p
    and r the block's entries of s and R as polynomials in the row exponents.
    Returns None when no exact quotient exists.
    """
    if not s.basis:
        return s
    degs = s.degrees()
    if len(degs) != 1:
        raise ValueError("form must be bihomogeneous")
    n, basis, d = s.n, s.basis, degs.pop()
    blocks: Dict[Tuple[int, ...], dict] = {}
    for (i, j), cell in s.cells.items():
        a = basis[i].exponents
        blocks.setdefault(tuple(map(sub, a, basis[j].exponents)), {})[a] = cell
    index: Dict[Tuple[int, ...], int] = {}
    cells = {}
    for diff, block in blocks.items():
        quotient = _divide_by_sum(block, n, d)
        if quotient is None:
            return None
        for ga, cell in quotient.items():
            gb = tuple(map(sub, ga, diff))
            cells[index.setdefault(ga, len(index)), index.setdefault(gb, len(index))] = cell
    # the divisor has unit coefficients, so the numerators stay over s.den
    r = HermitianForm._build(n, [Monomial._build(exps) for exps in index], s.den, cells)
    # defensive recomposition: each block division is exact, this guards the assembly
    return r if _unit_diagonal(n) * r == s else None


def _divide_by_sum(p: dict, n: int, d: int) -> Optional[dict]:
    """p / (x_0 + ... + x_{n-1}), p mapping degree-d exponents to Gaussian integers, or None.

    Division in lex order with x_0 first: the largest remaining term c x^a
    gives the quotient term c x^(a - e_0) and the remainder terms
    -c x^(a - e_0 + e_j), j >= 1, one x_0 exponent lower, so the remainder is
    cleared one x_0 exponent at a time from the top; a term left without x_0
    means there is no quotient.  The divisor is a nonzerodivisor, so every
    emitted term is final, and by Ostrowski's theorem (Newt(p) = simplex +
    Newt(r)) the x_i exponent of a true quotient lies in [lo_i, hi_i - 1]
    ([lo_i - 1, hi_i - 1] when n = 1), the extremes over the support of p:
    one term outside that box proves there is none.
    """
    box = [(min(column) - (n == 1), max(column) - 1) for column in zip(*p)]
    levels = [{} for _ in range(d + 1)]
    for exps, cell in p.items():
        levels[exps[0]][exps] = cell
    quotient = {}
    for top in range(d, 0, -1):
        lower = levels[top - 1]
        for exps, (re, im) in levels[top].items():
            if re or im:
                ga = (top - 1,) + exps[1:]
                if not all(lo <= e <= hi for e, (lo, hi) in zip(ga, box)):
                    return None
                quotient[ga] = (re, im)
                for j in range(1, n):
                    key = ga[:j] + (ga[j] + 1,) + ga[j + 1 :]
                    x, y = lower.get(key, (0, 0))
                    lower[key] = (x - re, y - im)
    return None if any(re or im for re, im in levels[0].values()) else quotient


def r_lambda(lam) -> HermitianForm:
    """One-variable family diag(1, 4, 6 - lam, 4, 1) on basis 1, z, z^2, z^3, z^4.

    At lam = 0 this is (1 + |z|^2)^4 restricted to its diagonal; the family
    stays a squared norm exactly while lam <= 6.
    """
    diagonal = (1, 4, 6 - _as_fraction(lam), 4, 1)
    return HermitianForm.from_entries(1, {(Monomial._build((k,)),) * 2: v for k, v in enumerate(diagonal)})


def extremal_lower(n: int, p: int) -> HoloMap:
    """The map (z_0, ..., z_{p-1}) in n variables; attains the minimal rank
    in the affine product bound for p <= n."""
    _require_positive(n=n, p=p)
    if p > n:
        raise ValueError("need p <= n coordinate components")
    return HoloMap(n, [HoloPoly.variable(n, i) for i in range(p)])


def extremal_power_lower(p: int) -> HoloMap:
    """The one-variable map (z, z^2, ..., z^p); attains rank t*p in the power bound."""
    _require_positive(p=p)
    return HoloMap(1, [HoloPoly.monomial(1, (k,)) for k in range(1, p + 1)])
