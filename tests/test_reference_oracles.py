"""The fraction-free kernels, the sparse form arithmetic, the integer tensor
products and the bounded division search against rational references, plus
congruence invariance of inertia and JSON document round trips.

The references in conftest run the textbook eliminations, the Gram sum,
dense form products and sums, tensor products built one by one, and a
division that tries every unknown, all over ``GaussianRational``
arithmetic.  Examples are derandomized, so every run checks the same inputs.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_divide_by_norm,
    reference_extract_sos,
    reference_form_add,
    reference_form_mul,
    reference_inertia,
    reference_norm_form,
    reference_reduce_minimal,
    reference_tensor_power_rank,
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
    parse_form_document,
    parse_map_document,
    reduce_minimal,
    serialize_form_document,
    serialize_map_document,
    tensor_power_rank,
)
from hermsos.rankdecomp import _row_reduce

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


def quadratic_value(form, v):
    """v^H G v over the dense Gram matrix, in plain GaussianRational arithmetic."""
    gram = form.gram
    total = GaussianRational(0)
    for a, va in enumerate(v):
        for b, vb in enumerate(v):
            total = total + va.conjugate() * gram[a][b] * vb
    return total


def assert_negativity_witness(form):
    with pytest.raises(NotSOSError) as info:
        extract_sos(form)
    v = info.value.witness
    assert len(v) == form.size
    value = quadratic_value(form, v)
    assert value.im == 0 and value.re < 0
    return str(info.value)


@PROPERTY
@given(hermitian_forms())
def test_not_sos_error_carries_a_negativity_witness(form):
    if reference_inertia(form).neg:
        assert_negativity_witness(form)
    else:
        extract_sos(form)


@pytest.mark.parametrize("gram,message", [
    # pivot 1, then the Schur complement 1 - |2 + i|^2 = -4
    ([[1, (2, 1)], [(2, -1), 1]], "negative pivot -4 at z0: not a sum of squares"),
    # pivot 1, then the Schur complement [[0, 1 - i], [1 + i, 1]]: a zero pivot
    # with a nonzero row, on indices past a nontrivial step
    ([[1, 1, 0], [1, 1, (1, -1)], [0, (1, 1), 1]], "zero diagonal entry with a nonzero row"),
    # the first step turns the nonzero diagonal entry 1/2 into 1/2 - 1^2/2 = 0
    ([[2, 1, (0, 1)], [1, "1/2", 1], [(0, -1), 1, 3]], "zero diagonal entry with a nonzero row"),
])
def test_both_not_sos_cases_carry_a_witness(gram, message):
    def scalar(x):
        return GaussianRational(*x) if isinstance(x, tuple) else GaussianRational(Fraction(x))

    size = len(gram)
    form = HermitianForm(2, BASIS[:size], [[scalar(x) for x in row] for row in gram])
    assert assert_negativity_witness(form).startswith(message)


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


@st.composite
def spanning_maps(draw):
    """Plain or weighted maps with complex coefficients, zero and dependent components."""
    support = draw(st.lists(st.sampled_from(BASIS), min_size=1, max_size=len(BASIS), unique=True))
    polys = []
    for _ in range(draw(st.integers(0, 5))):
        if polys and draw(st.booleans()):
            # a combination of earlier components: a dependent (possibly zero) one
            poly = HoloPoly.zero(2)
            for earlier in polys:
                poly = poly + earlier * draw(scalars)
        else:
            poly = HoloPoly(2, {mon: draw(scalars) for mon in support})
        polys.append(poly)
    if draw(st.booleans()):
        return HoloMap(2, polys)
    weights = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4))) for _ in polys]
    return ScaledMap(2, tuple(zip(weights, polys)))


@PROPERTY
@given(spanning_maps())
def test_reduce_minimal_matches_reference(f):
    assert reduce_minimal(f) == reference_reduce_minimal(f)


@st.composite
def tensor_inputs(draw):
    """(f, t): a normalized minimal map, n, p, t <= 3, with up to 19 terms a component."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    mons = [m for m in monomials_up_to_degree(n, degree) if m.degree >= 1]
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            support = mons
        else:
            support = draw(st.lists(st.sampled_from(mons), min_size=1, unique=True))
        polys.append(HoloPoly(n, {mon: draw(scalars) for mon in support}))
    if draw(st.booleans()):
        f = HoloMap(n, polys)
    else:
        f = ScaledMap(n, tuple((Fraction(draw(st.integers(1, 5)), 3), poly) for poly in polys))
    assume(reference_reduce_minimal(f)[1] == len(polys))
    return f, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tensor_inputs())
def test_tensor_power_rank_matches_reference(case):
    f, t = case
    assert tensor_power_rank(f, t) == reference_tensor_power_rank(f, t)


def test_tensor_power_rank_on_a_component_with_thirty_terms():
    mons = [m for m in monomials_up_to_degree(3, 4) if m.degree >= 1][:30]
    poly = HoloPoly(3, {mon: GaussianRational(k % 5 - 2, k % 3) for k, mon in enumerate(mons, 1)})
    f = HoloMap(3, [poly])
    assert tensor_power_rank(f, 3) == reference_tensor_power_rank(f, 3) == 3


gaussian_integers = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@PROPERTY
@given(hermitian_forms(), st.data())
def test_inertia_is_invariant_under_congruence(form, data):
    # G -> P^H G P with P unit upper triangular over Z[i], built densely here
    size = form.size
    p = [
        [
            GaussianRational(int(i == j)) if i >= j else data.draw(gaussian_integers)
            for j in range(size)
        ]
        for i in range(size)
    ]
    g = form.gram
    gp = [[sum((g[i][k] * p[k][j] for k in range(size)), GaussianRational(0))
           for j in range(size)] for i in range(size)]
    congruent = [
        [sum((p[k][i].conjugate() * gp[k][j] for k in range(size)), GaussianRational(0))
         for j in range(size)]
        for i in range(size)
    ]
    assert inertia(HermitianForm(form.n, form.basis, congruent)) == inertia(form)


def json_round_trip(doc):
    return json.loads(json.dumps(doc))


@PROPERTY
@given(spanning_maps())
def test_map_documents_round_trip(f):
    assume(isinstance(f, HoloMap) or len(f))  # see the next test
    assert parse_map_document(json_round_trip(serialize_map_document(f))) == f


@pytest.mark.xfail(
    strict=True, reason="a weighted map without components is written as a plain one"
)
def test_empty_weighted_map_round_trips():
    f = ScaledMap(2, ())
    assert parse_map_document(json_round_trip(serialize_map_document(f))) == f


@PROPERTY
@given(hermitian_forms())
def test_form_documents_round_trip(form):
    assert parse_form_document(json_round_trip(serialize_form_document(form))) == form


@st.composite
def integer_rows(draw):
    """Up to six sparse Gaussian-integer rows over up to six columns."""
    width = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.dictionaries(st.integers(0, width - 1), entry))
        rows.append({j: cell for j, cell in cells.items() if cell != (0, 0)})
    return rows, width


@PROPERTY
@given(integer_rows())
def test_row_kernel_entries_stay_minors(case):
    # every entry the kernel returns is, up to sign, a minor of the input,
    # so Hadamard's inequality bounds it by the product of the squared row
    # norms
    rows, width = case
    bound = 1
    for row in rows:
        bound *= max(1, sum(x * x + y * y for x, y in row.values()))
    for _, row in _row_reduce(rows, width):
        assert all(x * x + y * y <= bound for x, y in row.values())


def test_row_kernel_refuses_an_inexact_division():
    # a non-integral entry breaks the kernel's Gaussian-integer input; the
    # second pivot step then divides with a remainder
    rows = [{0: (2, 0), 1: (1, 0)}, {1: (3, 0), 2: (Fraction(1, 3), 0)}]
    with pytest.raises(ArithmeticError, match="inexact division"):
        _row_reduce(rows, 3)
