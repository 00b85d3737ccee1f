"""Shared generators and independent oracles for the test suite.

Randomized tests use explicit seeded random.Random instances so every run
is reproducible.  Oracles here deliberately avoid the code paths they
check: squared norms are validated by pointwise evaluation over exact
rationals, inertia by explicit congruence matrices, ranks by counting.
The references at the end run over ``GaussianRational`` arithmetic on
dense matrices, sharing no code with the package's fraction-free kernel,
its sparse Gaussian-integer form arithmetic, its integer tensor products,
or the polynomial division of ``divide_by_norm``.
"""

import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from operator import add
from typing import Dict, List, Optional, Tuple

from hermsos import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Inertia,
    Monomial,
    NotSOSError,
    grlex_key,
    monomials_of_degree,
    monomials_up_to_degree,
)


def mono(*exps) -> Monomial:
    return Monomial(tuple(exps))


def rand_fraction(rng, height=4) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_scalar(rng, height=4) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, height), rand_fraction(rng, height))


def rand_nonzero_scalar(rng, height=4) -> GaussianRational:
    while True:
        value = rand_scalar(rng, height)
        if value:
            return value


def rand_point(rng, n, height=3) -> List[GaussianRational]:
    return [rand_scalar(rng, height) for _ in range(n)]


def rand_poly(rng, n, degree_max=2, height=4, vanish=True, homogeneous=None) -> HoloPoly:
    """A random nonzero polynomial; ``homogeneous=d`` restricts support to degree d.
    About half of its terms have an imaginary part."""
    if homogeneous is not None:
        mons = monomials_of_degree(n, homogeneous)
    else:
        low = 1 if vanish else 0
        mons = [m for m in monomials_up_to_degree(n, degree_max) if m.degree >= low]
    while True:
        terms = {}
        for m in mons:
            if rng.random() < 0.5:
                value = rand_fraction(rng, height)
                if rng.random() < 0.5:
                    value = GaussianRational(value, rand_fraction(rng, height))
                if value:
                    terms[m] = value
        poly = HoloPoly(n, terms)
        if not poly.is_zero:
            return poly


def rand_plain_map(rng, n, p, degree_max=2, height=4, vanish=True) -> HoloMap:
    """A random map; components may be linearly dependent."""
    return HoloMap(n, [rand_poly(rng, n, degree_max, height, vanish) for _ in range(p)])


def norm_value(f, point) -> Fraction:
    """Pointwise squared norm, computed without any form machinery."""
    total = Fraction(0)
    for weight, poly in f.weighted_components():
        total += weight * poly.evaluate(point).abs2()
    return total


# -- small exact matrix helpers for congruence tests ------------------------


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[GR_ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if not a[i][k]:
                continue
            for j in range(cols):
                if b[k][j]:
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def mat_conj_t(a):
    rows, cols = len(a), len(a[0]) if a else 0
    return [[a[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def rand_invertible(rng, size, height=3):
    """L * diag * U with unit triangular L, U and nonzero diagonal: invertible."""
    lower = [[GR_ZERO] * size for _ in range(size)]
    upper = [[GR_ZERO] * size for _ in range(size)]
    diag = [[GR_ZERO] * size for _ in range(size)]
    for i in range(size):
        lower[i][i] = GaussianRational(1)
        upper[i][i] = GaussianRational(1)
        diag[i][i] = rand_nonzero_scalar(rng, height)
        for j in range(i):
            lower[i][j] = rand_scalar(rng, height)
            upper[j][i] = rand_scalar(rng, height)
    return mat_mul(mat_mul(lower, diag), upper)


def congruent_form(form: HermitianForm, p) -> HermitianForm:
    """The form with Gram matrix P G P^H over the same basis."""
    gram = mat_mul(mat_mul(p, [list(row) for row in form.gram]), mat_conj_t(p))
    return HermitianForm(form.n, list(form.basis), gram)


def rand_hermitian_form(rng, n, degree_max=1, height=3) -> HermitianForm:
    """A random Hermitian (usually indefinite) form: R + R^H over a small basis."""
    basis = monomials_up_to_degree(n, degree_max)
    size = len(basis)
    raw = [[rand_scalar(rng, height) for _ in range(size)] for _ in range(size)]
    herm = [
        [raw[i][j] + raw[j][i].conjugate() for j in range(size)] for i in range(size)
    ]
    return HermitianForm(n, basis, herm)


# -- reference eliminations over Gaussian rationals --------------------------


def reference_inertia(form: HermitianForm) -> Inertia:
    """Signature by congruence diagonalization with rational Schur updates."""
    size = form.size
    h = [list(row) for row in form.gram]
    pos = neg = 0
    for k in range(size):
        # find a usable pivot: a nonzero diagonal entry in the trailing block
        pivot = next((i for i in range(k, size) if h[i][i]), None)
        if pivot is None:
            # diagonal is all zero; look for any nonzero off-diagonal entry
            loc = next(
                (
                    (i, j)
                    for i in range(k, size)
                    for j in range(i + 1, size)
                    if h[i][j]
                ),
                None,
            )
            if loc is None:
                break  # trailing block is zero, done
            i, j = loc
            w = h[i][j]
            # row_i += c * row_j and col_i += conj(c) * col_j puts
            # 2*Re(c*w) on the diagonal; pick c so that it is nonzero
            c = GR_ONE if w.re else GR_I
            cbar = c.conjugate()
            for t in range(k, size):
                h[i][t] = h[i][t] + c * h[j][t]
            for t in range(k, size):
                h[t][i] = h[t][i] + cbar * h[t][j]
            pivot = i
        if pivot != k:
            h[k], h[pivot] = h[pivot], h[k]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
        d = h[k][k]
        if d.re > 0:
            pos += 1
        else:
            neg += 1
        # Schur update of the trailing block: row k then column k are
        # eliminated by congruence, which keeps the block Hermitian
        for i in range(k + 1, size):
            m = h[i][k] / d
            if not m:
                continue
            for j in range(k, size):
                h[i][j] = h[i][j] - m * h[k][j]
        for i in range(k + 1, size):
            h[k][i] = GR_ZERO
        h[k][k] = d
    return Inertia(pos, neg)


def reference_extract_sos(form: HermitianForm) -> List[Tuple[Fraction, HoloPoly]]:
    """The (weight, polynomial) pairs of an unpivoted rational LDL^H."""
    size = form.size
    h = [list(row) for row in form.gram]
    comps: List[Tuple[Fraction, HoloPoly]] = []
    for k in range(size):
        d = h[k][k]
        if not d:
            if any(h[k][j] for j in range(k, size)):
                raise NotSOSError(
                    "zero diagonal entry with a nonzero row: the form is indefinite"
                )
            continue
        if d.im or d.re < 0:
            raise NotSOSError(f"negative pivot {d} at {form.basis[k]}: not a sum of squares")
        mults = {i: h[i][k] / d for i in range(k + 1, size) if h[i][k]}
        column = {form.basis[k]: GR_ONE}
        column.update({form.basis[i]: li for i, li in mults.items()})
        comps.append((d.re, HoloPoly(form.n, column)))
        for i, li in mults.items():
            dli = d * li
            for j, lj in mults.items():
                h[i][j] = h[i][j] - dli * lj.conjugate()
        for i in range(k + 1, size):
            h[k][i] = GR_ZERO
            h[i][k] = GR_ZERO
    return comps


def reference_reduce_minimal(f) -> Tuple[HoloMap, int]:
    """Gauss-Jordan over Gaussian rationals: the reduced row echelon basis and its size."""
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
        r += 1
        if r == len(rows):
            break
    comps = []
    for i in range(r):
        terms = {support[j]: rows[i][j] for j in range(width) if rows[i][j]}
        comps.append(HoloPoly(f.n, terms))
    return HoloMap(f.n, comps), r


def reference_tensor_power_rank(f, c: int) -> int:
    """Dimension of the span of every weighted product of at most c components.

    Each product is built on its own, with its binomial and multinomial
    weight, term by term over ``GaussianRational`` with exponent tuples
    added coordinate by coordinate, and the span is taken by
    ``reference_reduce_minimal``.
    """
    pairs = list(f.weighted_components())
    prods: List[Tuple[Fraction, HoloPoly]] = []
    for k in range(1, c + 1):
        for combo in combinations_with_replacement(range(len(pairs)), k):
            weight = Fraction(comb(c, k))
            total = k
            for i in set(combo):
                weight *= comb(total, combo.count(i))
                total -= combo.count(i)
            terms = {(0,) * f.n: GR_ONE}
            for i in combo:
                weight *= pairs[i][0]
                product: Dict[Tuple[int, ...], GaussianRational] = {}
                for ea, va in terms.items():
                    for mb, vb in pairs[i][1].terms.items():
                        exps = tuple(map(add, ea, mb.exponents))
                        product[exps] = product.get(exps, GR_ZERO) + va * vb
                terms = product
            prods.append((weight, HoloPoly(f.n, {Monomial(exps): v for exps, v in terms.items()})))
    return reference_reduce_minimal(HoloMap(f.n, [poly for _, poly in prods], [w for w, _ in prods]))[1]


def reference_norm_form(f) -> HermitianForm:
    """sum_k w_k c_k c_k^H summed cell by cell in Gaussian rationals."""
    pairs = list(f.weighted_components())
    support = sorted({mon for _, poly in pairs for mon in poly.terms}, key=grlex_key)
    index = {mon: i for i, mon in enumerate(support)}
    rows = [[GR_ZERO] * len(support) for _ in support]
    for weight, poly in pairs:
        for ma, ca in poly.terms.items():
            for mb, cb in poly.terms.items():
                i, j = index[ma], index[mb]
                rows[i][j] = rows[i][j] + ca * cb.conjugate() * weight
    return HermitianForm(f.n, support, rows)


def drop_constant(form: HermitianForm) -> HermitianForm:
    """The principal subform without the constant monomial's row and column,
    rebuilt from the public entries."""
    return HermitianForm.from_entries(
        form.n, {(ma, mb): v for ma, mb, v in form.entries() if not (ma.is_constant or mb.is_constant)}
    )


def _dense_form(n, acc: Dict[Tuple[Monomial, Monomial], GaussianRational]) -> HermitianForm:
    """The form with the given coefficients, through the dense constructor."""
    mons = sorted({m for key in acc for m in key}, key=grlex_key)
    index = {m: i for i, m in enumerate(mons)}
    rows = [[GR_ZERO] * len(mons) for _ in mons]
    for (ma, mb), value in acc.items():
        rows[index[ma]][index[mb]] = value
    return HermitianForm(n, mons, rows)


def _dense_cells(form: HermitianForm):
    return [
        (ma, mb, form.gram[i][j])
        for i, ma in enumerate(form.basis)
        for j, mb in enumerate(form.basis)
        if form.gram[i][j]
    ]


def reference_form_mul(a: HermitianForm, b: HermitianForm) -> HermitianForm:
    """Gram convolution of the dense matrices, summed in Gaussian rationals."""
    acc: Dict[Tuple[Monomial, Monomial], GaussianRational] = {}
    for ma, mb, va in _dense_cells(a):
        for mc, md, vb in _dense_cells(b):
            key = (Monomial(map(add, ma.exponents, mc.exponents)), Monomial(map(add, mb.exponents, md.exponents)))
            acc[key] = acc.get(key, GR_ZERO) + va * vb
    return _dense_form(a.n, acc)


def reference_form_add(a: HermitianForm, b: HermitianForm) -> HermitianForm:
    """Cell-by-cell sum of the dense matrices in Gaussian rationals."""
    acc: Dict[Tuple[Monomial, Monomial], GaussianRational] = {}
    for form in (a, b):
        for ma, mb, value in _dense_cells(form):
            acc[(ma, mb)] = acc.get((ma, mb), GR_ZERO) + value
    return _dense_form(a.n, acc)


def _reference_solve(rows, rhs) -> Optional[List[GaussianRational]]:
    """The unique solution of an exact linear system, or None when inconsistent."""
    width = len(rows[0]) if rows else 0
    aug = [row[:] + [value] for row, value in zip(rows, rhs)]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = GR_ONE / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[width] for row in aug[len(pivots):]):
        return None
    assert len(pivots) == width, "multiplication by ||z||^2 is injective"
    return [aug[i][width] for i in range(width)]


def reference_divide_by_norm(s: HermitianForm) -> Optional[HermitianForm]:
    """s / ||z||^2 by solving, per difference vector, for every unknown of degree d - 1."""
    if not s.basis:
        return s
    (d,) = s.degrees()
    if d == 0:
        return None
    n = s.n
    lower = monomials_of_degree(n, d - 1)
    upper = monomials_of_degree(n, d)
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]

    def sub(x, y):
        exps = tuple(a - b for a, b in zip(x, y))
        return Monomial(exps) if min(exps) >= 0 else None

    coeffs = {(ma, mb): value for ma, mb, value in _dense_cells(s)}
    quotient = {}
    for diff in {tuple(x - y for x, y in zip(a.exponents, b.exponents)) for a, b in coeffs}:
        unknowns = [(ga, gb) for ga in lower if (gb := sub(ga.exponents, diff))]
        col = {pair: idx for idx, pair in enumerate(unknowns)}
        rows, rhs = [], []
        for sa in upper:
            sb = sub(sa.exponents, diff)
            if sb is None:
                continue
            row = [GR_ZERO] * len(unknowns)
            for e in unit:
                idx = col.get((sub(sa.exponents, e), sub(sb.exponents, e)))
                if idx is not None:
                    row[idx] = GR_ONE
            rows.append(row)
            rhs.append(coeffs.get((sa, sb), GR_ZERO))
        solution = _reference_solve(rows, rhs)
        if solution is None:
            return None
        quotient.update((pair, v) for pair, v in zip(unknowns, solution) if v)
    return _dense_form(n, quotient)


def reference_fraction(value) -> Fraction:
    """``Fraction(value)`` as Python 3.11 and later read it.

    Python 3.10's Fraction accepts no underscore in a string; there, one
    between two digits is dropped first, as 3.11 drops it.
    """
    if sys.version_info < (3, 11) and isinstance(value, str):
        value = re.sub(r"(?<=\d)_(?=\d)", "", value)
    return Fraction(value)


def reference_parse_map_document(doc) -> Tuple[bool, List[Tuple[Fraction, Dict[Monomial, GaussianRational]]]]:
    """Whether a valid map document is weighted, and its (weight, terms) pairs.

    Every literal is read by ``reference_fraction`` and every coefficient kept as a
    ``GaussianRational``; zero coefficients are dropped.
    """
    scaled = "scaled" in doc
    pairs = []
    for comp in doc["components"]:
        weight = Fraction(1)
        if isinstance(comp, dict):
            scaled = scaled or "scale" in comp
            weight = reference_fraction(comp.get("scale", 1))
            comp = comp["terms"]
        terms = {}
        for term in comp:
            value = GaussianRational(reference_fraction(term.get("re", 0)), reference_fraction(term.get("im", 0)))
            if value:
                terms[Monomial(tuple(term["exp"]))] = value
        pairs.append((weight, terms))
    return scaled, pairs


def reference_format_poly(terms: Dict[Monomial, GaussianRational]) -> str:
    """A polynomial written term by term in grlex order from ``str(GaussianRational)``."""
    parts = []
    for mon, coeff in sorted(terms.items(), key=lambda kv: grlex_key(kv[0])):
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
    if not parts:
        return "0"
    return parts[0] + "".join(
        " - " + part[1:] if part.startswith("-") else " + " + part for part in parts[1:]
    )


def reference_serialize_form_document(form: HermitianForm) -> dict:
    """The form document as a dict, every gram entry {"re", "im"} from ``form.gram``:
    an int, or the text of a Fraction that is not one."""

    def literal(q: Fraction):
        return q.numerator if q.denominator == 1 else str(q)

    gram = [[{"re": literal(v.re), "im": literal(v.im)} for v in row] for row in form.gram]
    return {"n": form.n, "basis": [list(mon.exponents) for mon in form.basis], "gram": gram}
