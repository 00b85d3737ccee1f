"""The fraction-free kernel and the integer norm_form against rational references.

The references in conftest run the textbook eliminations and the Gram sum
over ``GaussianRational`` arithmetic.  Examples are derandomized, so every
run checks the same inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_extract_sos, reference_inertia, reference_norm_form
from hermsos import (
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    NotSOSError,
    ScaledMap,
    extract_sos,
    inertia,
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


def test_inexact_division_is_refused():
    # a Gram matrix that breaks the Hermitian invariant the constructor
    # enforces; elimination then reaches a division with a remainder
    basis = [Monomial((k,)) for k in range(3)]
    form = HermitianForm(1, basis, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    form.gram = tuple(
        tuple(GaussianRational(v) for v in row) for row in ((3, -2, 1), (-2, 2, -2), (3, -3, 3))
    )
    with pytest.raises(ArithmeticError, match="inexact division"):
        inertia(form)
