"""Rank, inertia, and sum-of-squares structure of Hermitian forms.

Everything here runs over exact Gaussian-rational arithmetic:

  * ``inertia``       signature (positive, negative) of the Gram matrix by
                      Hermitian congruence diagonalization; basis-independent.
  * ``extract_sos``   write a positive semidefinite form as an exact weighted
                      sum of squared moduli of polynomials (an LDL^H
                      factorization read off column by column), or raise
                      ``NotSOSError`` with a witness of indefiniteness.
  * ``reduce_minimal``  replace a map by linearly independent components with
                      the same squared norm, giving the rank of the form.
  * ``affine_split``  test whether a form is 1 + ||h||^2 for some map h and
                      report the number of squares.

The number of squares in any such representation is bounded below by the
rank, and ``extract_sos`` achieves the rank, so these routines together
decide minimality questions exactly.

``inertia`` and ``extract_sos`` share one elimination kernel.  It is
fraction-free: it reads the form's Gaussian-integer entries over their
common denominator and eliminates them by symmetric Bareiss steps, in which
every division is an exact division by a real integer pivot, checked to
leave no remainder.  No gcd is taken inside the elimination; rationals are
formed only when the pivots and factor columns are read out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .polyalg import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    grlex_key,
    norm_form,
)


class NotSOSError(ValueError):
    """The form admits no representation as a sum of squared moduli."""


class Inertia(NamedTuple):
    pos: int
    neg: int

    @property
    def rank(self) -> int:
        return self.pos + self.neg


def _ldlh(form: HermitianForm, pivoting: bool):
    """Fraction-free LDL^H of the Gram matrix: one step per eliminated index.

    The form stores D * G as Gaussian integers over its denominator D; that
    matrix is eliminated by symmetric Bareiss steps
    a_ij <- (p * a_ij - a_ik * a_kj) / p_prev.  Every entry stays a Gaussian
    integer (after each step it is a minor of D * G, or of an integer
    congruent copy once pivoting has acted) and each pivot is real (a
    principal minor of a Hermitian matrix), so each division is an exact
    division by a real integer; a nonzero remainder raises ArithmeticError.

    Yields (index, pivot, scale, column) with ``index`` the basis position
    of the pivot.  The diagonal factor is d = pivot / scale and the unit
    lower factor has L[i][index] = (re + im*i) / pivot for each (i, re, im)
    in ``column``; indices absent from ``column`` have L = 0.

    With ``pivoting`` the pivot is the first nonzero trailing diagonal
    entry, swapped into place; if the trailing diagonal is all zero, the
    first nonzero off-diagonal entry w at (i, j) is moved onto the diagonal
    by the integer congruence row_i += c * row_j, col_i += conj(c) * col_j
    with c in {1, i} chosen so that 2 Re(c * conj(w)) != 0.  Elimination
    stops once the trailing block is zero, so every pivot is nonzero.

    Without ``pivoting`` indices are taken in basis order.  A zero diagonal
    entry is yielded with pivot 0 and then skipped; the factorization is
    valid only if its ``column`` is empty, which the caller must check.
    """
    size, den = form.size, form.den
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]
    for (i, j), (x, y) in form.cells.items():
        re[i][j] = x
        im[i][j] = y
    order = list(range(size))
    prev = 1
    for k in range(size):
        if pivoting:
            pivot = next((i for i in range(k, size) if re[i][i]), None)
            if pivot is None:
                loc = next(
                    (
                        (i, j)
                        for i in range(k, size)
                        for j in range(i + 1, size)
                        if re[i][j] or im[i][j]
                    ),
                    None,
                )
                if loc is None:
                    return  # trailing block is zero
                i, j = loc
                ri, ii, rj, ij = re[i], im[i], re[j], im[j]
                if ri[j]:  # c = 1
                    for t in range(k, size):
                        ri[t] += rj[t]
                        ii[t] += ij[t]
                    for t in range(k, size):
                        re[t][i] += re[t][j]
                        im[t][i] += im[t][j]
                else:  # c = i
                    for t in range(k, size):
                        ri[t] -= ij[t]
                        ii[t] += rj[t]
                    for t in range(k, size):
                        re[t][i] += im[t][j]
                        im[t][i] -= re[t][j]
                pivot = i
            if pivot != k:
                for mat in (re, im):
                    mat[k], mat[pivot] = mat[pivot], mat[k]
                    for row in mat:
                        row[k], row[pivot] = row[pivot], row[k]
                order[k], order[pivot] = order[pivot], order[k]
        p = re[k][k]
        column = [
            (order[i], re[i][k], im[i][k])
            for i in range(k + 1, size)
            if re[i][k] or im[i][k]
        ]
        yield order[k], p, prev * den, column
        if not p:
            continue
        # trailing update of the upper triangle, mirrored to keep it Hermitian
        rk, ik = re[k], im[k]
        for i in range(k + 1, size):
            ri, ii = re[i], im[i]
            a_re, a_im = ri[k], ii[k]
            for j in range(i, size):
                b_re, b_im = rk[j], ik[j]
                x = p * ri[j] - (a_re * b_re - a_im * b_im)
                y = p * ii[j] - (a_re * b_im + a_im * b_re)
                if prev != 1:
                    x, rx = divmod(x, prev)
                    y, ry = divmod(y, prev)
                    if rx or ry:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                ri[j] = x
                ii[j] = y
                re[j][i] = x
                im[j][i] = -y
        prev = p


def inertia(form: HermitianForm) -> Inertia:
    """Signature of the Gram matrix by exact congruence diagonalization.

    Congruence H -> P H P^H preserves the signature, so the count of
    positive and negative pivots after full diagonalization is independent
    of the monomial basis used to present the form.
    """
    pos = neg = 0
    for _, pivot, scale, _ in _ldlh(form, pivoting=True):
        if (pivot > 0) == (scale > 0):
            pos += 1
        else:
            neg += 1
    return Inertia(pos, neg)


@dataclass(frozen=True)
class ScaledMap:
    """A map with a positive rational weight per component.

    Represents the squared-norm decomposition sum_k w_k |p_k(z)|^2; weights
    let the extraction stay inside Gaussian rationals where a plain map
    would need square roots.
    """

    n: int
    components: Tuple[Tuple[Fraction, HoloPoly], ...]

    def __post_init__(self):
        comps = tuple((Fraction(w), p) for w, p in self.components)
        for weight, poly in comps:
            if weight <= 0:
                raise ValueError("weights must be positive")
            if not isinstance(poly, HoloPoly) or poly.n != self.n:
                raise ValueError("component has wrong variable count")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)

    def weighted_components(self) -> Iterator[Tuple[Fraction, HoloPoly]]:
        return iter(self.components)

    @property
    def vanishes_at_zero(self) -> bool:
        return all(poly.vanishes_at_zero for _, poly in self.components)

    @property
    def max_degree(self) -> int:
        return max((poly.degree for _, poly in self.components), default=0)

    def __str__(self) -> str:
        inner = ", ".join(f"{w}*|{p}|^2" for w, p in self.components)
        return f"ScaledMap({inner})"


def extract_sos(form: HermitianForm) -> ScaledMap:
    """Exact LDL^H decomposition of a positive semidefinite form.

    Returns a scaled map h with rank(form) components whose squared norm
    reproduces the form.  A negative pivot, or a zero diagonal entry whose
    row is not yet eliminated, certifies indefiniteness and raises
    ``NotSOSError``; for a PSD matrix neither can occur, so no pivoting is
    ever needed.
    """
    comps: List[Tuple[Fraction, HoloPoly]] = []
    for k, pivot, scale, column in _ldlh(form, pivoting=False):
        if not pivot:
            if column:
                raise NotSOSError(
                    "zero diagonal entry with a nonzero row: the form is indefinite"
                )
            continue
        d = Fraction(pivot, scale)
        if d < 0:
            raise NotSOSError(f"negative pivot {d} at {form.basis[k]}: not a sum of squares")
        # column k of the factor, scaled so the pivot coefficient is 1
        terms = {form.basis[k]: GR_ONE}
        for i, a_re, a_im in column:
            terms[form.basis[i]] = GaussianRational(Fraction(a_re, pivot), Fraction(a_im, pivot))
        comps.append((d, HoloPoly(form.n, terms)))
    return ScaledMap(form.n, tuple(comps))


def reduce_minimal(f) -> Tuple[HoloMap, int]:
    """A basis of the component span, and its dimension.

    Row-reduces the coefficient matrix of the components over the Gaussian
    rationals.  The returned map's components are linearly independent and
    span the same space, and their count equals the rank of ||f||^2,
    because the Gram matrix of a map factors through the component span.
    (The returned basis is not isometric to f; use ``extract_sos`` on the
    form when the squared norm itself must be preserved.)  Scaled maps are
    accepted; positive weights never change the span.
    """
    pairs = list(f.weighted_components())
    support = sorted({mon for _, poly in pairs for mon in poly.terms}, key=grlex_key)
    index = {mon: j for j, mon in enumerate(support)}
    width = len(support)
    rows: List[List[GaussianRational]] = []
    for _, poly in pairs:
        if poly.is_zero:
            continue
        row = [GR_ZERO] * width
        for mon, val in poly.terms.items():
            row[index[mon]] = val
        rows.append(row)
    # Gauss-Jordan to reduced row echelon form
    pivots: List[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = GR_ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    comps = []
    for i in range(r):
        terms = {support[j]: rows[i][j] for j in range(width) if rows[i][j]}
        comps.append(HoloPoly(f.n, terms))
    return HoloMap(f.n, comps), r


def grams_equal(f, g) -> bool:
    """Whether two maps have identical squared norms.

    This is the right notion of equivalence for decompositions: maps give
    the same form iff they differ by an isometry of the component span.
    """
    if f.n != g.n:
        return False
    return norm_form(f) == norm_form(g)


def _affine_block(form: HermitianForm) -> Optional[HermitianForm]:
    """The non-constant block B when form == 1 + B with B not coupled to 1, else None."""
    if form.constant_coefficient() != GR_ONE:
        return None
    block = form.drop_constant()
    # the constant row and column hold nothing but the 1 iff the block kept
    # every other cell
    if len(block.cells) != len(form.cells) - 1:
        return None
    return block


def affine_split(form: HermitianForm) -> Tuple[bool, int]:
    """Test whether form == 1 + ||h||^2 for some map h.

    Returns (True, m) with m the minimal number of components of such an h,
    or (False, 0).  Requires the constant coefficient to be exactly 1, no
    coupling between the constant and the rest of the basis, and the
    remaining block to be positive semidefinite.
    """
    block = _affine_block(form)
    if block is None:
        return False, 0
    sig = inertia(block)
    if sig.neg:
        return False, 0
    return True, sig.pos
