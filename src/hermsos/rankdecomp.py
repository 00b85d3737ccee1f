"""Rank, inertia, and sum-of-squares structure of Hermitian forms.

Everything here is exact; scalars are Gaussian rationals:

  * ``inertia``       signature (positive, negative) of the Gram matrix by
                      Hermitian congruence diagonalization; basis-independent.
  * ``extract_sos``   write a positive semidefinite form as an exact weighted
                      sum of squared moduli of polynomials, a weighted
                      ``HoloMap`` (an LDL^H factorization read off column
                      by column), or raise
                      ``NotSOSError`` with a witness of indefiniteness.
  * ``reduce_minimal``  keep the components of a map that are not in the
                      span of the earlier ones, giving the rank of its
                      squared norm.
  * ``affine_split``  the map h vanishing at the origin with the fewest
                      components such that a form is 1 + ||h||^2, or None,
                      read off one extraction.

The number of squares in any such representation is bounded below by the
rank, and ``extract_sos`` achieves the rank, so these routines together
decide minimality questions exactly.

One fraction-free kernel, ``_ldlh``, does every exact elimination, by
symmetric Bareiss steps in basis order, each connected block on its own (over
integers if no cell of it is imaginary, else Gaussian integers) and every
division exact.  ``inertia`` and ``extract_sos`` eliminate the form.  Every
rank of rows R, of sparse Gaussian-integer vectors, follows one policy: it
is first taken mod a prime, which certifies it when it reaches a proven
upper bound, and only otherwise is it the number of nonzero pivots of a
positive semidefinite Gram matrix.  ``_rank`` (for ``isometry``'s
minimality check and tensor power rank) certifies at min(rows, columns)
and eliminates the smaller of R R^H and R^H R; ``_independent`` (for
``reduce_minimal``) certifies at the row count and eliminates R R^H, whose
pivots name the independent rows.  No gcd is taken in an elimination;
results are read out as polynomials of Gaussian-integer numerators over one
denominator, each reduced by one gcd pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .polyalg import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    _outer_sum,
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


def _ldlh(size: int, den: int, cells: Mapping[Tuple[int, int], Tuple[int, int]]):
    """Fraction-free LDL^H of a Hermitian matrix, one basis index at a time.

    ``cells`` maps index pairs (i, j) below ``size`` to the Gaussian-integer
    numerators (re, im) of D * G, D = ``den`` > 0; absent pairs are zero.
    G is Hermitian, so only the pairs with i <= j are read.
    Each connected block of indices is eliminated on its own by symmetric
    Bareiss steps a_ij <- (p * a_ij - a_ik * a_kj) / p_prev, p_prev being the
    block's previous nonzero pivot (1 at its start).  Entries stay Gaussian
    integers (minors of D * G, or of a unit congruent copy once a zero pivot
    has been moved) and pivots real, so every division is by a real integer
    and exact; a nonzero remainder raises ArithmeticError.  A block of more
    than one index is stored as a dense matrix of which only the upper
    triangle (j >= i) is read and updated: the entries a_ik below a pivot are
    read off row k, conjugated.

    Yields (index, pivot, scale, column) for each index k in basis order:
    d = pivot / scale, and L[i][k] = (re + im*i) / pivot for each (i, re, im)
    in ``column`` (im = 0 in a real block), 0 elsewhere.  The leading minors
    of a block-diagonal matrix factor over its blocks, so these are the
    rationals of eliminating the whole matrix at once.

    A zero pivot is yielded too.  With an empty ``column`` elimination goes
    on past it.  With a nonzero ``column`` the form is indefinite; a caller
    that resumes gets index k again with a nonzero pivot: the first entry
    s = a_jk of ``column`` is folded in by the unit congruence
    row_k += c * row_j, col_k += conj(c) * col_j, which makes the pivot
    a_jj + 2 Re(c * s), with c the first of 1, -1, i that leaves it nonzero.
    The move touches row k alone, in O(m) for a block of m indices: row j
    left of its diagonal is read off column j, a_jt = conj(a_tj), and the
    column move writes only a_kk += conj(c) * a_kj (the new a_kj), as no
    step reads its other entries, below the diagonal or in finished rows.
    A pivot still zero after it raises ArithmeticError: one move per index.
    A block with no imaginary part in its cells is eliminated as a real one, an
    int per entry: c is never i there, so it stays real, with the same integers.
    A block of one index k has no matrix: it is yielded as (k, a_kk, den, [])
    without a step, a_kk read straight off ``cells`` (0 if the cell is absent).
    """
    # union-find with path halving; a block is named by its least index
    root = list(range(size))
    for i, j in cells:
        if i < j:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            while root[j] != j:
                root[j] = root[root[j]]
                j = root[j]
            if i != j:
                root[max(i, j)] = min(i, j)
    # each block's indices in basis order, and each index's place in its block
    members: Dict[int, List[int]] = {}
    place = []
    for k in range(size):
        root[k] = root[root[k]]  # the parent is a smaller index, already final
        block = members.setdefault(root[k], [])
        place.append(len(block))
        block.append(k)
    re = {r: [[0] * len(block) for _ in block] for r, block in members.items() if len(block) > 1}
    im = {}  # imaginary parts, of the complex blocks only
    for (i, j), (x, y) in cells.items():
        r = root[i]
        if j < i or r not in re:
            continue  # the upper triangle is the whole matrix, and a one-index block is read off cells
        li = place[i]
        re[r][li][place[j]] = x
        if y:
            if r not in im:
                im[r] = [[0] * len(members[r]) for _ in members[r]]
            im[r][li][place[j]] = y
    prev = dict.fromkeys(re, 1)
    for k in range(size):
        r = root[k]
        if r not in re:
            # what either step yields for a block of one index, without starting it
            yield k, cells.get((k, k), (0, 0))[0], den, []
            continue
        if r in im:
            p = yield from _complex_step(members[r], re[r], im[r], place[k], prev[r], den)
        else:
            p = yield from _real_step(members[r], re[r], place[k], prev[r], den)
        if p:
            prev[r] = p


def _real_step(block, a, lk: int, last: int, den: int):
    """``_ldlh``'s step at local index lk of a real block; returns the pivot."""
    m, rk = len(block), a[lk]
    while True:
        p = rk[lk]
        column = [(block[i], rk[i], 0) for i in range(lk + 1, m) if rk[i]]
        yield block[lk], p, last * den, column
        if p or not column:
            break
        # resumed past an indefinite zero pivot: move it off zero.  s = a_jk is
        # real and nonzero, so a_jj + 2s and a_jj - 2s differ by 4s and cannot
        # both be 0: c = i, which would bring in an imaginary part, is never needed.
        j, s = block.index(column[0][0]), column[0][1]
        c = 1 if a[j][j] + 2 * s else -1
        row_j = [a[t][j] for t in range(lk, j)] + a[j][j:]
        rk[lk:] = [x + c * y for x, y in zip(rk[lk:], row_j)]
        rk[lk] += c * rk[j]
        if not rk[lk]:
            raise ArithmeticError("zero pivot after a congruence")
    if p:
        # trailing update of the block's upper triangle, a_ik = a_ki read off row k
        for i in range(lk + 1, m):
            ri, a_ik = a[i], rk[i]
            for j in range(i, m):
                x = p * ri[j] - a_ik * rk[j]
                if last != 1:
                    x, rx = divmod(x, last)
                    if rx:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                ri[j] = x
    return p


def _complex_step(block, bre, bim, lk: int, last: int, den: int):
    """``_ldlh``'s step at local index lk of a complex block; returns the pivot."""
    m, rk, ik = len(block), bre[lk], bim[lk]
    while True:
        p = rk[lk]
        column = [(block[i], rk[i], -ik[i]) for i in range(lk + 1, m) if rk[i] or ik[i]]
        yield block[lk], p, last * den, column
        if p or not column:
            break
        # resumed past an indefinite zero pivot: move it off zero
        j, s_re = block.index(column[0][0]), column[0][1]
        c_re, c_im = (1, 0) if bre[j][j] + 2 * s_re else (-1, 0) if bre[j][j] - 2 * s_re else (0, 1)
        rj = [bre[t][j] for t in range(lk, j)] + bre[j][j:]
        ij = [-bim[t][j] for t in range(lk, j)] + bim[j][j:]
        for t, x, y in zip(range(lk, m), rj, ij):
            rk[t] += c_re * x - c_im * y
            ik[t] += c_re * y + c_im * x
        rk[lk] += c_re * rk[j] + c_im * ik[j]
        ik[lk] += c_re * ik[j] - c_im * rk[j]
        if not rk[lk]:
            raise ArithmeticError("zero pivot after a congruence")
    if p:
        # trailing update of the block's upper triangle, a_ik = conj(a_ki) read off row k
        for i in range(lk + 1, m):
            ri, ii = bre[i], bim[i]
            a_re, a_im = rk[i], -ik[i]
            for j in range(i, m):
                b_re, b_im = rk[j], ik[j]
                x = p * ri[j] - (a_re * b_re - a_im * b_im)
                y = p * ii[j] - (a_re * b_im + a_im * b_re)
                if last != 1:
                    x, rx = divmod(x, last)
                    y, ry = divmod(y, last)
                    if rx or ry:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                ri[j] = x
                ii[j] = y
    return p


def inertia(form: HermitianForm) -> Inertia:
    """Signature of the Gram matrix by exact congruence diagonalization.

    Congruence H -> P H P^H preserves the signature, so the count of
    positive and negative pivots after full diagonalization is independent
    of the monomial basis used to present the form.  Zero pivots are
    skipped; the kernel moves one whose row is not yet eliminated off zero
    when the loop resumes.
    """
    pos = neg = 0
    for _, pivot, scale, _ in _ldlh(form.size, form.den, form.cells):
        if not pivot:
            continue
        if (pivot > 0) == (scale > 0):
            pos += 1
        else:
            neg += 1
    return Inertia(pos, neg)


def extract_sos(form: HermitianForm) -> HoloMap:
    """Exact LDL^H decomposition of a positive semidefinite form.

    Returns a weighted map h with rank(form) components whose squared norm
    reproduces the form.  A negative pivot, or a zero diagonal entry whose
    row is not yet eliminated, certifies indefiniteness and raises
    ``NotSOSError`` with a witness vector; for a PSD matrix neither can
    occur, so the basis-order factorization never has to move a pivot.

    The kernel yields d = pivot / scale with scale = p_prev * den, p_prev the
    block's previous nonzero pivot (or 1) and den > 0.  Every earlier nonzero
    pivot is positive when a pivot is read, or the loop would have raised, so
    scale > 0 and the sign of the integer pivot is the sign of d: the test
    needs no Fraction, and one is built only for a weight.  A pivot with an
    empty column, as every one-index block has, gives the component 1 * z^a
    over den 1 directly, the canonical form of pivot * z^a over the pivot.
    """
    polys: List[HoloPoly] = []
    weights: List[Fraction] = []
    steps = []  # (index, pivot, column) of each nonzero pivot so far
    for k, pivot, scale, column in _ldlh(form.size, form.den, form.cells):
        if not pivot:
            if column:
                raise NotSOSError(
                    "zero diagonal entry with a nonzero row: the form is indefinite",
                    _zero_pivot_witness(form, steps, k, scale, column[0]),
                )
            continue
        if pivot < 0:
            raise NotSOSError(
                f"negative pivot {Fraction(pivot, scale)} at {form.basis[k]}: not a sum of squares",
                _lift(form.size, steps, {k: GR_ONE}),
            )
        steps.append((k, pivot, column))
        weights.append(Fraction(pivot, scale))
        if not column:  # the monomial alone, already in lowest terms
            polys.append(HoloPoly._canonical(form.n, 1, {form.basis[k]: (1, 0)}))
            continue
        # column k of the factor over the pivot, so the pivot coefficient is 1
        cells = {form.basis[k]: (pivot, 0)}
        for i, a_re, a_im in column:
            cells[form.basis[i]] = (a_re, a_im)
        polys.append(HoloPoly._build(form.n, pivot, cells))
    return HoloMap._build(form.n, tuple(polys), tuple(weights))


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


# p = 1 (mod 4) below 2^30, so a residue is one CPython digit, and r^2 = -1 (mod p)
_PRIME, _ROOT = 1073741789, 933053945


def _rank_mod_p(vectors: Sequence[Mapping]) -> int:
    """The rank of the sparse Gaussian-integer vectors over F_p, p = ``_PRIME``.

    i -> ``_ROOT`` makes Z[i] -> F_p a ring map, so a minor that vanishes over
    Q(i) vanishes mod p: the result is never above the exact rank, and is it
    once it reaches a proven upper bound.  Each vector is reduced by the pivot
    rows so far, in order; a nonzero remainder, scaled to a leading 1, joins them.
    """
    p, r, pivots = _PRIME, _ROOT, []  # (column, row) with row[column] = 1
    for vector in vectors:
        row = {key: v for key, (x, y) in vector.items() if (v := (x + r * y) % p)}
        for col, pivot_row in pivots:
            s = row.get(col)
            if s:
                for key, v in pivot_row.items():
                    if w := (row.get(key, 0) - s * v) % p:
                        row[key] = w
                    else:
                        del row[key]  # present: s * v is not 0 mod p
        if row:
            col = next(iter(row))
            inv = pow(row[col], -1, p)
            pivots.append((col, {key: v * inv % p for key, v in row.items()}))
    return len(pivots)


def _rank(vectors: Sequence[Mapping]) -> int:
    """The rank of the sparse Gaussian-integer vectors: mod p when that
    reaches min(vectors, distinct keys), the rank bound of the matrix R of
    vectors by keys; else the nonzero pivots of R R^H, or of R^H R, the Gram
    matrix of the columns, when there are fewer keys than vectors."""
    keys = set().union(*vectors)
    rank = _rank_mod_p(vectors)
    if rank == min(len(vectors), len(keys)):
        return rank
    if len(keys) < len(vectors):
        columns: Dict[object, Dict[int, Tuple[int, int]]] = {}
        for a, vector in enumerate(vectors):
            for key, cell in vector.items():
                columns.setdefault(key, {})[a] = cell
        vectors = list(columns.values())
    return len(_gram_pivots(vectors))


def _independent(vectors: Sequence[Mapping]) -> List[int]:
    """The indices of the sparse Gaussian-integer vectors not in the span of the
    earlier ones: all of them if their rank mod p is their count, else exactly."""
    if _rank_mod_p(vectors) == len(vectors):
        return list(range(len(vectors)))
    return _gram_pivots(vectors)


def _gram_pivots(vectors: Sequence[Mapping]) -> List[int]:
    """The exact fallback of ``_independent`` and ``_rank``: the nonzero pivots
    of the Gram matrix G[a][b] = <v_a, v_b>.

    G = R R^H for R the matrix of the vectors as rows, summed as c c^H over
    the columns c of R, gathered in one pass, and eliminated over denominator
    1; G is positive semidefinite with the rank of R, and its k-th pivot is
    nonzero iff v_k is not in the span of the earlier vectors.
    """
    columns: Dict[object, List[Tuple[int, int, int]]] = {}
    for a, vector in enumerate(vectors):
        for key, (x, y) in vector.items():
            columns.setdefault(key, []).append((a, x, y))
    gram = _outer_sum(len(vectors), [(1, column) for column in columns.values()])
    return [k for k, pivot, _, _ in _ldlh(len(vectors), 1, gram) if pivot]


def reduce_minimal(f: HoloMap) -> Tuple[HoloMap, int]:
    """The components of f not in the span of the earlier ones, and their count.

    The result is an ordered sub-map of f spanning the same space with
    independent components, so its length is the rank of ||f||^2.  It is
    not isometric to f (``extract_sos`` on the form is).  The weights of a
    weighted map are dropped; positive weights never change the span.
    """
    polys = f.components
    kept = [polys[k] for k in _independent([poly.cells for poly in polys])]
    return HoloMap(f.n, kept), len(kept)


def grams_equal(f: HoloMap, g: HoloMap) -> bool:
    """Whether two maps, plain or weighted, have identical squared norms.

    This is the right notion of equivalence for decompositions: maps give
    the same form iff they differ by an isometry of the component span.
    """
    if f.n != g.n:
        return False
    return norm_form(f) == norm_form(g)


def affine_split(form: HermitianForm) -> Optional[HoloMap]:
    """The map h with h(0) = 0 and the fewest components such that
    form == 1 + ||h||^2, or None.

    The constant term of 1 + ||h||^2 is 1 + ||h(0)||^2, so such an h exists
    iff the form is a sum of squares whose first square (the constant
    monomial comes first in grlex order) is 1 with weight 1, a 1x1 block of
    its own.  One extraction decides it, and the remaining squares are h,
    rank-many components, the least possible count.  The first square is
    read on its fields, weight 1 and the polynomial 1 over den 1, and h is
    the rest of the extraction, passed on unchecked.
    """
    try:
        squares = extract_sos(form)
    except NotSOSError:
        return None
    comps, weights = squares.components, squares.weights
    if not comps:
        return None
    if weights[0] != 1 or comps[0].den != 1 or comps[0].cells != {Monomial._build((0,) * form.n): (1, 0)}:
        return None
    return HoloMap._build(form.n, comps[1:], weights[1:])
