"""Rank, inertia, and sum-of-squares structure of Hermitian forms.

Everything here is exact; scalars are Gaussian rationals:

  * ``inertia``       signature (positive, negative) of the Gram matrix by
                      Hermitian congruence diagonalization; basis-independent.
  * ``extract_sos``   write a positive semidefinite form as an exact weighted
                      sum of squared moduli of polynomials (an LDL^H
                      factorization read off column by column), or raise
                      ``NotSOSError`` with a witness of indefiniteness.
  * ``reduce_minimal``  replace a map by linearly independent components with
                      the same span, giving the rank of its squared norm.
  * ``affine_split``  test whether a form is 1 + ||h||^2 for some map h and
                      report the number of squares.

The number of squares in any such representation is bounded below by the
rank, and ``extract_sos`` achieves the rank, so these routines together
decide minimality questions exactly.

Two fraction-free elimination kernels do the work, both over Gaussian
integers, with Bareiss steps whose every division is exact and checked to
leave no remainder.  No gcd is taken inside an elimination; rationals are
formed only when results are read out.

  * ``_ldlh``  for Hermitian forms (``inertia``, ``extract_sos``): it reads
    the form's Gaussian-integer entries over their common denominator and
    eliminates them symmetrically, dividing by real integer pivots.
  * ``_row_reduce``  for rows (``reduce_minimal``, and in ``isometry`` the
    tensor-power rank and the division by ||z||^2): a Gauss-Jordan
    elimination of rows each scaled to Z[i] by its own denominator,
    dividing by Gaussian-integer pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .polyalg import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    _integer_terms,
    grlex_key,
    norm_form,
)


class NotSOSError(ValueError):
    """The form admits no representation as a sum of squared moduli.

    ``witness`` certifies it: a vector v of Gaussian rationals, one per
    basis monomial of the form, with v^H G v < 0 for the Gram matrix G.
    """

    def __init__(self, message: str, witness: Optional[Tuple[GaussianRational, ...]] = None):
        super().__init__(message)
        self.witness = witness


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
        # from a list, as HermitianForm builds its basis
        comps = tuple([(Fraction(w), p) for w, p in self.components])
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
    ``NotSOSError`` with a witness vector; for a PSD matrix neither can
    occur, so no pivoting is ever needed.
    """
    comps: List[Tuple[Fraction, HoloPoly]] = []
    steps = []  # (index, pivot, column) of each nonzero pivot so far
    for k, pivot, scale, column in _ldlh(form, pivoting=False):
        if not pivot:
            if column:
                raise NotSOSError(
                    "zero diagonal entry with a nonzero row: the form is indefinite",
                    _zero_pivot_witness(form, steps, k, scale, column[0]),
                )
            continue
        d = Fraction(pivot, scale)
        if d < 0:
            raise NotSOSError(
                f"negative pivot {d} at {form.basis[k]}: not a sum of squares",
                _lift(form.size, steps, {k: GR_ONE}),
            )
        steps.append((k, pivot, column))
        # column k of the factor, scaled so the pivot coefficient is 1
        terms = {form.basis[k]: GR_ONE}
        for i, a_re, a_im in column:
            terms[form.basis[i]] = GaussianRational(Fraction(a_re, pivot), Fraction(a_im, pivot))
        comps.append((d, HoloPoly(form.n, terms)))
    return ScaledMap(form.n, tuple(comps))


def _lift(size: int, steps, u: Dict[int, GaussianRational]) -> Tuple[GaussianRational, ...]:
    """v = L^{-H} u, for u supported past the eliminated indices.

    After the steps, G = L diag(D, S) L^H with S the Schur complement of the
    remaining indices and L unit lower triangular (identity past the steps),
    so v^H G v = u^H S u.  L^H v = u is solved by back substitution.
    """
    v = dict(u)
    for j, pivot, column in reversed(steps):
        total = GR_ZERO
        for i, a_re, a_im in column:
            if i in v:
                # conj(L[i][j]) * v_i with L[i][j] = (a_re + a_im*i) / pivot
                total = total + GaussianRational(Fraction(a_re, pivot), Fraction(-a_im, pivot)) * v[i]
        if total:
            v[j] = -total
    return tuple(v.get(i, GR_ZERO) for i in range(size))


def _zero_pivot_witness(form: HermitianForm, steps, k: int, scale: int, entry):
    """A witness for S[k][k] = 0 with S[i][k] = s != 0 in the Schur complement S.

    u = alpha e_k + e_i gives u^H S u = S[i][i] + 2 Re(s alpha).  Every
    earlier pivot is positive, so S[i][i] <= G[i][i], and
    alpha = -conj(s) (G[i][i] + |s|^2) / (2 |s|^2) makes it at most -|s|^2.
    """
    i, s_re, s_im = entry
    s = GaussianRational(Fraction(s_re, scale), Fraction(s_im, scale))
    g_ii = Fraction(form.cells.get((i, i), (0, 0))[0], form.den)
    norm = s.abs2()
    alpha = -s.conjugate() * GaussianRational((g_ii + norm) / (2 * norm))
    return _lift(form.size, steps, {k: alpha, i: GR_ONE})


def _row_reduce(
    rows: Sequence[Mapping[int, Tuple[int, int]]], width: int
) -> List[Tuple[int, Dict[int, Tuple[int, int]]]]:
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows.

    Each row maps column indices below ``width`` to the numerators (re, im)
    of its nonzero entries; the callers scale every input row to Z[i] by its
    own denominator, which changes neither the row space, nor the reduced
    row echelon form, nor a solution whose right-hand side is scaled with
    its row.  Columns are taken left to right; the pivot is the first
    remaining row with a nonzero entry in the column, swapped into place.
    Every other row then takes the Bareiss step
    a_ij <- (p * a_ij - a_ic * a_kj) / p_prev, with p = a_kc the new pivot
    and p_prev the one before (1 at the start).  The entries stay Gaussian
    integers (minors of the row-permuted input), so the division, done as a
    multiplication by conj(p_prev) and a division by |p_prev|^2, is exact; a
    nonzero remainder raises ArithmeticError.

    A row with a_ic = 0 would only be scaled by p / p_prev.  That step is
    deferred: each row records the pivot d it was last brought up to date
    with, its next update divides by d in place of p_prev (the skipped
    scalings telescope), and a pivot row is first scaled by p_prev / d.

    Returns, for each pivot row in order, its pivot column and its nonzero
    entries.  Every other pivot column of the row is zero, so the reduced
    row echelon form is each row divided by its pivot entry, and the rank
    is the number of rows returned.
    """
    re = [[0] * width for _ in rows]
    im = [[0] * width for _ in rows]
    for r, row in enumerate(rows):
        for j, (x, y) in row.items():
            re[r][j] = x
            im[r][j] = y
    size = len(rows)
    level = [(1, 0)] * size

    def combine(i, start, u, a, k):
        """Row i <- (u * row i - a * row k) / level[i], from column start on."""
        (u_re, u_im), (a_re, a_im), (d_re, d_im) = u, a, level[i]
        unit = d_re == 1 and not d_im
        norm = d_re * d_re + d_im * d_im
        ri, ii, rk, ik = re[i], im[i], re[k], im[k]
        for j in range(start, width):
            b_re, b_im = rk[j], ik[j]
            x = u_re * ri[j] - u_im * ii[j] - (a_re * b_re - a_im * b_im)
            y = u_re * ii[j] + u_im * ri[j] - (a_re * b_im + a_im * b_re)
            if not unit:
                x, y = x * d_re + y * d_im, y * d_re - x * d_im
                x, rx = divmod(x, norm)
                y, ry = divmod(y, norm)
                if rx or ry:
                    raise ArithmeticError("inexact division in fraction-free elimination")
            ri[j] = x
            ii[j] = y

    pivots: List[int] = []
    prev = (1, 0)
    for c in range(width):
        r = len(pivots)
        if r == size:
            break
        k = next((i for i in range(r, size) if re[i][c] or im[i][c]), None)
        if k is None:
            continue
        for table in (re, im, level):
            table[r], table[k] = table[k], table[r]
        if level[r] != prev:
            combine(r, c, prev, (0, 0), r)
        p = (re[r][c], im[r][c])
        for i in range(size):
            if i != r and (re[i][c] or im[i][c]):
                # earlier pivot rows are zero before their pivot; the rest, before c
                combine(i, pivots[i] if i < r else c, p, (re[i][c], im[i][c]), r)
                level[i] = p
        level[r] = p
        pivots.append(c)
        prev = p
    return [
        (c, {j: (x, y) for j, (x, y) in enumerate(zip(re[r], im[r])) if x or y})
        for r, c in enumerate(pivots)
    ]


def _gaussian_ratio(x: int, y: int, d_re: int, d_im: int) -> GaussianRational:
    """The Gaussian rational (x + y*i) / (d_re + d_im*i)."""
    norm = d_re * d_re + d_im * d_im
    return GaussianRational(
        Fraction(x * d_re + y * d_im, norm), Fraction(y * d_re - x * d_im, norm)
    )


def reduce_minimal(f) -> Tuple[HoloMap, int]:
    """A basis of the component span, and its dimension.

    The reduced row echelon form of the coefficient matrix of the
    components, by the fraction-free kernel.  The returned map's components
    are linearly independent and span the same space, and their count equals
    the rank of ||f||^2, because the Gram matrix of a map factors through
    the component span.  (The returned basis is not isometric to f; use
    ``extract_sos`` on the form when the squared norm itself must be
    preserved.)  Scaled maps are accepted; positive weights never change the
    span.
    """
    polys = [poly for _, poly in f.weighted_components() if not poly.is_zero]
    support = sorted({mon for poly in polys for mon in poly.terms}, key=grlex_key)
    index = {mon: j for j, mon in enumerate(support)}
    rows = [
        {index[mon]: cell for mon, cell in _integer_terms(poly.terms)[1].items()} for poly in polys
    ]
    comps = [
        HoloPoly(f.n, {support[j]: _gaussian_ratio(x, y, *row[c]) for j, (x, y) in row.items()})
        for c, row in _row_reduce(rows, len(support))
    ]
    return HoloMap(f.n, comps), len(comps)


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
