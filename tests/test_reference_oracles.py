"""The fraction-free kernel, the sparse form arithmetic and the bounded
division search against rational references.

The references in conftest run the textbook eliminations, the Gram sum,
dense form products and sums, and a division that tries every unknown, all
over ``GaussianRational`` arithmetic.  Examples are derandomized, so every
run checks the same inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_divide_by_norm,
    reference_extract_sos,
    reference_form_add,
    reference_form_mul,
    reference_inertia,
    reference_norm_form,
)
from hermsos import (
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    NotSOSError,
    ScaledMap,
    divide_by_norm,
    extract_sos,
    inertia,
    monomials_of_degree,
    monomials_up_to_degree,
    norm_form,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BASIS = monomials_up_to_degree(2, 2)  # six monomials in two variables

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
# mostly zero, so forms are often sparse and often rank deficient
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
scalars = st.builds(GaussianRational, sparse_rationals, sparse_rationals)


@st.composite
def hermitian_forms(draw):
    """Hermitian forms with complex off-diagonal entries, sometimes a zero diagonal."""
    size = draw(st.integers(1, len(BASIS)))
    zero_diagonal = draw(st.booleans())
    gram = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        if not zero_diagonal:
            gram[i][i] = GaussianRational(draw(sparse_rationals))
        for j in range(i + 1, size):
            value = draw(scalars)
            gram[i][j] = value
            gram[j][i] = value.conjugate()
    return HermitianForm(2, BASIS[:size], gram)


@st.composite
def form_pairs(draw):
    """Two forms on overlapping bases, where some cells of the second cancel the first."""
    a = draw(hermitian_forms())
    size = draw(st.integers(1, len(BASIS)))
    start = draw(st.integers(0, len(BASIS) - size))
    basis = BASIS[start:start + size]
    gram = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if draw(st.booleans()):
                value = -a.coefficient(basis[i], basis[j])
            elif i == j:
                value = GaussianRational(draw(sparse_rationals))
            else:
                value = draw(scalars)
            gram[i][j] = value
            gram[j][i] = value.conjugate()
    return a, HermitianForm(2, basis, gram)


@st.composite
def scaled_maps(draw):
    """Positive-weight maps over a few monomials, so components often depend."""
    support = draw(st.lists(st.sampled_from(BASIS), min_size=1, max_size=4, unique=True))
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {mon: draw(scalars) for mon in support}
        weight = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        comps.append((weight, HoloPoly(2, terms)))
    return ScaledMap(2, tuple(comps))


def sos_outcome(extract, form):
    try:
        return list(extract(form))
    except NotSOSError as exc:
        return str(exc)


@PROPERTY
@given(hermitian_forms())
def test_inertia_matches_reference(form):
    assert inertia(form) == reference_inertia(form)


@PROPERTY
@given(hermitian_forms())
def test_extract_sos_matches_reference_on_any_form(form):
    # same components, or the same NotSOSError message
    kernel = sos_outcome(lambda g: extract_sos(g).weighted_components(), form)
    assert kernel == sos_outcome(reference_extract_sos, form)


@PROPERTY
@given(scaled_maps())
def test_extract_sos_matches_reference_and_recomposes_psd(f):
    gram = reference_norm_form(f)
    s = extract_sos(gram)
    assert list(s.weighted_components()) == reference_extract_sos(gram)
    assert norm_form(s) == gram
    assert len(s) == reference_inertia(gram).pos


@PROPERTY
@given(scaled_maps())
def test_norm_form_matches_direct_sum(f):
    assert norm_form(f) == reference_norm_form(f)
    plain = HoloMap(f.n, [poly for _, poly in f.weighted_components()])
    assert norm_form(plain) == reference_norm_form(plain)


def dense_negation(form):
    return HermitianForm(form.n, form.basis, [[-v for v in row] for row in form.gram])


@PROPERTY
@given(form_pairs())
def test_form_product_matches_reference(pair):
    a, b = pair
    assert a * b == reference_form_mul(a, b)


@PROPERTY
@given(form_pairs())
def test_form_sum_negation_and_equality_match_reference(pair):
    a, b = pair
    zero = HermitianForm.zero(2)
    assert a + b == reference_form_add(a, b)
    assert -b == dense_negation(b)
    assert a + -a == zero
    assert (a + b) + -b == a
    assert (a == b) == (a.basis == b.basis and a.gram == b.gram)
    assert (a + b == a) == (b == zero)


@PROPERTY
@given(hermitian_forms())
def test_dense_constructor_and_from_entries_agree(form):
    cells = {
        (ma, mb): form.gram[i][j]
        for i, ma in enumerate(form.basis)
        for j, mb in enumerate(form.basis)
    }
    assert HermitianForm.from_entries(form.n, cells) == form
    # the same matrix over a reversed basis with a zero row added
    basis = [Monomial((3, 0))] + list(reversed(form.basis))
    gram = [[cells.get((ma, mb), 0) for mb in basis] for ma in basis]
    assert HermitianForm(form.n, basis, gram) == form


@st.composite
def bihomogeneous_forms(draw):
    """||z||^2 R for a random Hermitian R of degree d - 1, often plus a perturbation."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))

    def random_form(degree):
        support = st.sampled_from(monomials_of_degree(n, degree))
        mons = draw(st.lists(support, min_size=1, unique=True))
        gram = [[GaussianRational(0)] * len(mons) for _ in mons]
        for i in range(len(mons)):
            gram[i][i] = GaussianRational(draw(rationals))
            for j in range(i + 1, len(mons)):
                gram[i][j] = draw(scalars)
                gram[j][i] = gram[i][j].conjugate()
        return HermitianForm(n, mons, gram)

    s = norm_form(HoloMap.variables(n)) * random_form(d - 1)
    if draw(st.booleans()):
        s = s + random_form(d)
    return s


@PROPERTY
@given(bihomogeneous_forms())
def test_divide_by_norm_matches_exhaustive_reference(s):
    assert divide_by_norm(s) == reference_divide_by_norm(s)


def test_inexact_division_is_refused():
    # a Gram matrix that breaks the Hermitian invariant the constructor
    # enforces; elimination then reaches a division with a remainder
    basis = [Monomial((k,)) for k in range(3)]
    form = HermitianForm(1, basis, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    tampered = ((3, -2, 1), (-2, 2, -2), (3, -3, 3))
    form.cells = {(i, j): (v, 0) for i, row in enumerate(tampered) for j, v in enumerate(row)}
    with pytest.raises(ArithmeticError, match="inexact division"):
        inertia(form)
