"""The fraction-free kernel, the sparse form arithmetic, the integer tensor
products and the bounded division search against rational references, plus
congruence invariance of inertia, JSON document round trips, and
metamorphic oracles: a unitary change of a map's components keeps its norm
form, and of the components of the h it solves for, the identity; a unitary
change of its variables keeps its ranks, the inertia of its modification
form, the identity its h solves, and whether its squared norm is divisible
by ||z||^2.  The check of the identity with a = 1, which compares the
unreduced cells of 1 + ||h||^2 with the left side, is held to equality of
the canonical forms on h and on small changes of it, and the listing of a
failed identity, at a = 1 and a = 2, to the nonzero entries of the dense
difference of the two sides' ``.gram``.

The references in conftest run the textbook eliminations, the Gram sum,
dense form products and sums, tensor products built one by one, and a
division that tries every unknown, all over ``GaussianRational``
arithmetic.  Examples are derandomized, so every run checks the same inputs.
"""

import json
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    drop_constant,
    mono,
    reference_divide_by_norm,
    reference_extract_sos,
    reference_form_add,
    reference_form_mul,
    reference_inertia,
    reference_norm_form,
    reference_reduce_minimal,
    reference_serialize_form_document,
    reference_tensor_power_rank,
)
from hermsos import (
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    NotSOSError,
    affine_split,
    divide_by_norm,
    extract_sos,
    grams_equal,
    grlex_key,
    identity_mismatch,
    inertia,
    monomials_of_degree,
    monomials_up_to_degree,
    norm_form,
    one_plus_norm,
    parse_form_document,
    parse_map_document,
    reduce_minimal,
    serialize_form_document,
    serialize_map_document,
    solve_h,
    tensor_power_rank,
    verify_identity,
)
from hermsos.documents import serialize_form_json
from hermsos.isometry import _equals_unreduced, _left_side, _with_one
from hermsos.polyalg import _norm_cells
from hermsos.rankdecomp import _ldlh, _rank, _rank_mod_p

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BASIS = monomials_up_to_degree(2, 2)  # six monomials in two variables

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
# mostly zero, so forms are often sparse and often rank deficient
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
scalars = st.builds(GaussianRational, sparse_rationals, sparse_rationals)
# the kernels take a real loop when no entry has an imaginary part
real_scalars = st.builds(GaussianRational, sparse_rationals)


def entry_scalars(draw):
    """One strategy for every entry of a drawn object: all real, or complex."""
    return real_scalars if draw(st.booleans()) else scalars


@st.composite
def hermitian_forms(draw):
    """Hermitian forms with real or complex off-diagonal entries, sometimes a zero diagonal."""
    size = draw(st.integers(1, len(BASIS)))
    zero_diagonal = draw(st.booleans())
    values = entry_scalars(draw)
    gram = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        if not zero_diagonal:
            gram[i][i] = GaussianRational(draw(sparse_rationals))
        for j in range(i + 1, size):
            value = draw(values)
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
    values = entry_scalars(draw)
    gram = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if draw(st.booleans()):
                value = -a.coefficient(basis[i], basis[j])
            elif i == j:
                value = GaussianRational(draw(sparse_rationals))
            else:
                value = draw(values)
            gram[i][j] = value
            gram[j][i] = value.conjugate()
    return a, HermitianForm(2, basis, gram)


@st.composite
def scaled_maps(draw):
    """Positive-weight maps over a few monomials, so components often depend."""
    support = draw(st.lists(st.sampled_from(BASIS), min_size=1, max_size=4, unique=True))
    values = entry_scalars(draw)
    polys, weights = [], []
    for _ in range(draw(st.integers(1, 4))):
        terms = {mon: draw(values) for mon in support}
        weights.append(Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5))))
        polys.append(HoloPoly(2, terms))
    return HoloMap(2, polys, weights)


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
def test_extract_sos_and_affine_split_give_what_the_checked_constructor_gives(f):
    # both pass their weighted map on unchecked; the checked constructor is the reference
    s = extract_sos(reference_norm_form(f))
    h = affine_split(one_plus_norm(f))
    for g in (s, h) if h is not None else (s,):
        assert g.weights is not None and all(type(w) is Fraction and w > 0 for w in g.weights)
        assert HoloMap(g.n, g.components, g.weights) == g
        assert all(poly.n == g.n for poly in g.components)


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


@PROPERTY
@given(scaled_maps())
def test_one_plus_norm_is_the_norm_form_plus_one(f):
    # the old route, a second pass that adds the constant form
    assert one_plus_norm(f) == norm_form(f) + HermitianForm.constant(f.n, 1)


@PROPERTY
@given(hermitian_forms(), st.booleans())
def test_affine_split_is_one_plus_the_factor_of_the_block(form, unit):
    one = Monomial((0, 0))
    if unit:  # the constant cell 1 and the rest of its row zero, so the block decides
        entries = {(ma, mb): v for ma, mb, v in drop_constant(form).entries()}
        form = HermitianForm.from_entries(form.n, {(one, one): 1, **entries})
    h = affine_split(form)
    row = [v for ma, mb, v in form.entries() if ma == one and mb != one]
    block = sos_outcome(reference_extract_sos, drop_constant(form))
    assert (h is not None) == (form.coefficient(one, one) == 1 and not row and isinstance(block, list))
    if h is not None:
        assert one_plus_norm(h) == form
        assert list(h.weighted_components()) == block


@PROPERTY
@given(scaled_maps())
def test_affine_split_recovers_a_map_vanishing_at_zero(f):
    h = affine_split(one_plus_norm(f))
    assert (h is not None) == f.vanishes_at_zero
    if h is not None:
        assert grams_equal(h, f)


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


def assert_same_form(*forms):
    """The forms are equal, and list and print their entries identically, row-major."""
    first = forms[0]
    listing = list(first.entries())
    assert list(first.basis) == sorted(first.basis, key=grlex_key)
    place = {mon: k for k, mon in enumerate(first.basis)}
    rows_cols = [(place[ma], place[mb]) for ma, mb, _ in listing]
    assert rows_cols == sorted(rows_cols) and len(set(rows_cols)) == len(rows_cols)
    for other in forms[1:]:
        assert other == first
        assert list(other.entries()) == listing
        assert str(other) == str(first)


@PROPERTY
@given(hermitian_forms(), st.randoms(use_true_random=False))
def test_from_entries_ignores_the_order_of_the_entries(form, rng):
    entries = [((ma, mb), value) for ma, mb, value in form.entries()]
    rng.shuffle(entries)
    assert_same_form(form, HermitianForm.from_entries(form.n, dict(entries)))


@PROPERTY
@given(form_pairs())
def test_sums_and_products_do_not_depend_on_the_order_of_the_operands(pair):
    a, b = pair
    assert_same_form(a + b, b + a, reference_form_add(a, b))
    assert_same_form(a * b, b * a, reference_form_mul(a, b))


@PROPERTY
@given(scaled_maps(), st.randoms(use_true_random=False))
def test_norm_form_ignores_the_order_of_components_and_terms(f, rng):
    pairs = []
    for weight, poly in f.weighted_components():
        terms = list(poly.terms.items())
        rng.shuffle(terms)
        pairs.append((weight, HoloPoly(f.n, dict(terms))))
    rng.shuffle(pairs)
    assert_same_form(norm_form(f), norm_form(HoloMap(f.n, [poly for _, poly in pairs], [w for w, _ in pairs])))


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
    # cells that break the invariant the constructors enforce, integer
    # numerators over one denominator; elimination then reaches a division
    # with a remainder
    basis = [Monomial((k,)) for k in range(3)]
    form = HermitianForm(1, basis, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    half = Fraction(1, 2)
    tampered = ((3, -2, 1), (-2, 2, half), (1, half, 3))
    form.cells = {(i, j): (v, 0) for i, row in enumerate(tampered) for j, v in enumerate(row)}
    with pytest.raises(ArithmeticError, match="inexact division"):
        inertia(form)
    # the kernel reads the upper triangle alone, so cells that break only the
    # Hermitian symmetry are read as the Hermitian matrix of their upper triangle
    asymmetric = ((3, -2, 1), (-2, 2, -2), (3, -3, 3))
    form.cells = {(i, j): (v, 0) for i, row in enumerate(asymmetric) for j, v in enumerate(row)}
    upper = [[asymmetric[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    assert inertia(form) == reference_inertia(HermitianForm(1, basis, upper))


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
    return HoloMap(2, polys, weights)


@PROPERTY
@given(spanning_maps())
def test_reduce_minimal_matches_reference(f):
    basis, rank = reduce_minimal(f)
    polys = [poly for _, poly in f.weighted_components()]
    assert rank == len(basis) == reference_reduce_minimal(f)[1]
    # an ordered sub-map of f ...
    rest = iter(polys)
    assert all(any(kept == poly for poly in rest) for kept in basis.components)
    # ... of independent components ...
    assert reference_reduce_minimal(basis)[1] == len(basis)
    # ... inside the span of f
    assert reference_reduce_minimal(HoloMap(f.n, polys + list(basis.components)))[1] == rank


gaussian_integer_pairs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def gaussian_integer_vectors(draw):
    """Sparse Gaussian-integer vectors over BASIS, some of them Gaussian-integer
    combinations of earlier ones, i * v among them, and some zero."""
    vectors = []
    for _ in range(draw(st.integers(0, 7))):
        if vectors and draw(st.booleans()):
            vector = {}
            for earlier in vectors:
                s_re, s_im = draw(gaussian_integer_pairs)
                for key, (x, y) in earlier.items():
                    a, b = vector.get(key, (0, 0))
                    vector[key] = (a + s_re * x - s_im * y, b + s_re * y + s_im * x)
            vector = {key: cell for key, cell in vector.items() if cell != (0, 0)}
        else:
            support = draw(st.lists(st.sampled_from(BASIS), max_size=len(BASIS), unique=True))
            vector = {mon: cell for mon in support if (cell := draw(gaussian_integer_pairs)) != (0, 0)}
        vectors.append(vector)
    return vectors


@PROPERTY
@given(gaussian_integer_vectors())
def test_the_rank_modulo_the_prime_is_the_reference_rank(vectors):
    f = HoloMap(2, [HoloPoly(2, {mon: GaussianRational(x, y) for mon, (x, y) in v.items()}) for v in vectors])
    rank = reference_reduce_minimal(f)[1]
    assert _rank_mod_p(vectors) <= rank  # never above, whatever the prime
    assert _rank_mod_p(vectors) == rank  # and equal on these inputs
    # _rank certifies at min(vectors, keys) and below it eliminates the smaller
    # Gram matrix; the transposed vectors, keyed by index, take the other shape
    transposed = {}
    for a, vector in enumerate(vectors):
        for key, cell in vector.items():
            transposed.setdefault(key, {})[a] = cell
    assert _rank(vectors) == _rank(list(transposed.values())) == rank


@st.composite
def minimal_maps(draw, plain=st.booleans(), n_max=3):
    """Normalized minimal maps, n <= n_max and p <= 3, with up to 19 terms a
    component, plain when ``plain`` draws True and weighted otherwise."""
    n = draw(st.integers(1, n_max))
    degree = draw(st.integers(1, 3))
    mons = [m for m in monomials_up_to_degree(n, degree) if m.degree >= 1]
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            support = mons
        else:
            support = draw(st.lists(st.sampled_from(mons), min_size=1, unique=True))
        polys.append(HoloPoly(n, {mon: draw(scalars) for mon in support}))
    if draw(plain):
        f = HoloMap(n, polys)
    else:
        f = HoloMap(n, polys, [Fraction(draw(st.integers(1, 5)), 3) for _ in polys])
    assume(reference_reduce_minimal(f)[1] == len(polys))
    return f


@st.composite
def tensor_inputs(draw):
    """(f, t): a map of ``minimal_maps`` and t <= 3."""
    return draw(minimal_maps()), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tensor_inputs())
def test_tensor_power_rank_matches_reference(case):
    f, t = case
    assert tensor_power_rank(f, t) == reference_tensor_power_rank(f, t)


@st.composite
def carry_boundary_inputs(draw):
    """(f, t), n = 1 or 5 and t <= 4, whose t-th power of the first component
    reaches exponent t * k, k the largest exponent of f: the highest digit the
    packed exponent keys of ``tensor_power_rank`` hold before a carry.  Each
    component is a complex multiple of a power z_i^e, e <= k and e = k for the
    first, plus a multiple, often zero, of one variable; plain or weighted."""
    n = draw(st.sampled_from((1, 5)))
    k = draw(st.integers(1, 3))
    variable = st.integers(0, n - 1)
    polys = []
    for e in [k] + draw(st.lists(st.integers(1, k), max_size=2)):
        i, j = draw(variable), draw(variable)
        terms = {Monomial(tuple(e * (v == i) for v in range(n))): draw(scalars.filter(bool))}
        terms.setdefault(Monomial(tuple(int(v == j) for v in range(n))), draw(scalars))
        polys.append(HoloPoly(n, terms))
    if draw(st.booleans()):
        f = HoloMap(n, polys)
    else:
        f = HoloMap(n, polys, [Fraction(draw(st.integers(1, 5)), 3) for _ in polys])
    assume(reference_reduce_minimal(f)[1] == len(polys))
    return f, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(carry_boundary_inputs())
def test_tensor_power_rank_at_the_packing_carry_boundary(case):
    f, t = case
    assert tensor_power_rank(f, t) == reference_tensor_power_rank(f, t)


def test_tensor_power_rank_on_a_component_with_thirty_terms():
    mons = [m for m in monomials_up_to_degree(3, 4) if m.degree >= 1][:30]
    poly = HoloPoly(3, {mon: GaussianRational(k % 5 - 2, k % 3) for k, mon in enumerate(mons, 1)})
    f = HoloMap(3, [poly])
    assert tensor_power_rank(f, 3) == reference_tensor_power_rank(f, 3) == 3


def test_tensor_power_rank_with_more_products_than_monomials():
    # 135 products of w and 3w^2 span the 30 monomials w .. w^30
    f = HoloMap(1, [HoloPoly(1, {Monomial((1,)): 1}), HoloPoly(1, {Monomial((2,)): 3})])
    assert tensor_power_rank(f, 15) == reference_tensor_power_rank(f, 15) == 30


@st.composite
def skew_hermitian_matrices(draw, size):
    """S over Q(i) with S^H = -S: an imaginary diagonal, and S[j][i] = -conj(S[i][j]).
    The diagonal is seldom zero, so U = I is rare even for one component."""
    s = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        s[i][i] = GaussianRational(0, draw(rationals))
        for j in range(i + 1, size):
            s[i][j] = draw(scalars)
            s[j][i] = -s[i][j].conjugate()
    return s


def cayley_transform(s):
    """U = (I - S)(I + S)^(-1), unitary for skew-Hermitian S, with entries in Q(i).

    The eigenvalues of S are imaginary, so I + S is invertible, and it commutes
    with I - S: U is (I + S)^(-1)(I - S), read off Gauss-Jordan on [I + S | I - S]."""
    size = len(s)
    rows = [
        [GaussianRational(int(i == j)) + s[i][j] for j in range(size)]
        + [GaussianRational(int(i == j)) - s[i][j] for j in range(size)]
        for i in range(size)
    ]
    for c in range(size):
        pivot = next(r for r in range(c, size) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = GaussianRational(1) / rows[c][c]
        rows[c] = [v * inverse for v in rows[c]]
        for r in range(size):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return [row[size:] for row in rows]


def apply_matrix(u, f):
    """The map U f, component i the sum over j of U[i][j] f_j, by HoloPoly + and scalar *."""
    comps = []
    for row in u:
        poly = HoloPoly.zero(f.n)
        for scalar, comp in zip(row, f.components):
            poly = poly + comp * scalar
        comps.append(poly)
    return HoloMap(f.n, comps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(minimal_maps(plain=st.just(True)), st.data())
def test_a_unitary_change_of_components_keeps_the_norm_form(f, data):
    # a metamorphic oracle: ||U f||^2 = ||f||^2 for U unitary, so U f has the
    # norm form of f, and the h solved for f solves the identity for U f
    u = cayley_transform(data.draw(skew_hermitian_matrices(len(f))))
    g = apply_matrix(u, f)
    assert norm_form(g) == norm_form(f)
    b, c = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    assert verify_identity(g, solve_h(f, b, c), 1, b, c)


def changed_map(h, i, poly=None, weight=None):
    """The weighted map h with component i replaced by poly, or its weight by weight."""
    comps, weights = list(h.components), list(h.weights)
    if poly is not None:
        comps[i] = poly
    if weight is not None:
        weights[i] = weight
    return HoloMap(h.n, comps, weights)


def identity_variants(h, i, mon):
    """h; h with the coefficient of mon in component i shifted by 1, by -1 and
    by the imaginary unit; h with the weight of component i doubled; and h
    with its grlex-last monomial multiplied by z_{n-1} wherever it occurs,
    whose 1 + ||h||^2 has the same cells as that of h over another support."""
    terms = dict(h.components[i].terms)
    out = [h]
    for shift in (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1)):
        out.append(changed_map(h, i, poly=HoloPoly(h.n, {**terms, mon: terms[mon] + shift})))
    out.append(changed_map(h, i, weight=2 * h.weights[i]))
    last = max((m for poly in h.components for m in poly.terms), key=grlex_key)
    raised = Monomial(map(add, last.exponents, (0,) * (h.n - 1) + (1,)))
    moved = [HoloPoly(h.n, {raised if m == last else m: v for m, v in poly.terms.items()}) for poly in h.components]
    out.append(HoloMap(h.n, moved, h.weights))
    return out


def identity_decisions(f, b, c, i, mon):
    """For each of ``identity_variants`` of h = solve_h(f, b, c), whether
    1 + ||h||^2 equals the left side, as ``identity_mismatch`` decides it
    before reducing the right side, after checking that this agrees with
    canonical ``==`` and with ``verify_identity``."""
    left = _left_side(f, b, c)
    decisions = []
    for g in identity_variants(solve_h(f, b, c), i, mon):
        unreduced = _equals_unreduced(left, *_norm_cells(_with_one(g)))
        assert unreduced == (left == one_plus_norm(g)) == verify_identity(f, g, 1, b, c)
        decisions.append(unreduced)
    # h solves it, and the moved support never does
    assert decisions[0] and not decisions[-1]
    return decisions


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(minimal_maps(n_max=2), st.data())
def test_the_unreduced_identity_decision_is_equality_of_canonical_forms(f, data):
    b, c = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    h = solve_h(f, b, c)
    i = data.draw(st.integers(0, len(h) - 1))
    mon = data.draw(st.sampled_from(sorted(h.components[i].terms, key=grlex_key)))
    identity_decisions(f, b, c, i, mon)


def test_the_unreduced_identity_decision_scales_by_the_left_denominator():
    # rational complex coefficients put the left side over a denominator above 1
    f = HoloMap(2, [
        HoloPoly(2, {mono(1, 0): 1, mono(0, 1): GaussianRational(Fraction(-3, 4), Fraction(1, 2))}),
        HoloPoly(2, {mono(0, 1): Fraction(5, 3), mono(1, 1): GaussianRational(Fraction(1, 2), Fraction(-7, 6))}),
    ])
    for b, c in [(1, 1), (2, 1), (1, 2)]:
        assert _left_side(f, b, c).den > 1
        decisions = identity_decisions(f, b, c, 0, mono(1, 0))
        assert decisions.count(True) == 1


def reference_one_plus_norm(h) -> HermitianForm:
    """1 + ||h||^2 by the reference Gram sum, with the constant 1 as one more component."""
    one = HoloPoly.constant(h.n, 1)
    weights = None if h.weights is None else [Fraction(1), *h.weights]
    return reference_norm_form(HoloMap(h.n, [one, *h.components], weights))


def reference_power(form: HermitianForm, k: int) -> HermitianForm:
    out = form
    for _ in range(k - 1):
        out = reference_form_mul(out, form)
    return out


def dense_difference(left: HermitianForm, right: HermitianForm):
    """The nonzero entries of left - right, read off the dense ``.gram`` of each
    and summed in Gaussian rationals, row-major in grlex order."""
    acc = {}
    for form, sign in ((left, 1), (right, -1)):
        for i, ma in enumerate(form.basis):
            for j, mb in enumerate(form.basis):
                acc[ma, mb] = acc.get((ma, mb), GaussianRational(0)) + sign * form.gram[i][j]
    mons = sorted({mon for pair in acc for mon in pair}, key=grlex_key)
    return [(ma, mb, acc[ma, mb]) for ma in mons for mb in mons if acc.get((ma, mb))]


def reference_sides(f, h, a, b, c):
    """(1 + ||z||^2)^b (1 + ||f||^2)^c and (1 + ||h||^2)^a by dense reference products."""
    left = reference_form_mul(
        reference_power(reference_one_plus_norm(HoloMap.variables(f.n)), b),
        reference_power(reference_one_plus_norm(f), c),
    )
    return left, reference_power(reference_one_plus_norm(h), a)


def identity_sides(f, h, a, b, c):
    """The same two sides from the package: ``_left_side``, which the oracles
    above hold to the reference products, and ``one_plus_norm(h) ** a``."""
    return _left_side(f, b, c), one_plus_norm(h) ** a


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(minimal_maps(n_max=2), st.data())
def test_a_failed_identity_lists_the_dense_difference(f, data):
    a, b, c = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1)]))
    # at a = 1 the variants of h fail; at a = 2 h and each variant fail, as the
    # right side is the square of the left
    h = solve_h(f, b, c)
    i = data.draw(st.integers(0, len(h) - 1))
    mon = data.draw(st.sampled_from(sorted(h.components[i].terms, key=grlex_key)))
    for g in identity_variants(h, i, mon)[2 - a :]:
        listing = identity_mismatch(f, g, a, b, c)
        assert listing == dense_difference(*identity_sides(f, g, a, b, c))
        assert (listing == []) == verify_identity(f, g, a, b, c)


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 1, 1)])
def test_a_failed_identity_leaves_out_the_cells_that_cancel(a, b, c):
    # both sides have the constant 1, and at a = 1 h moved by 1 in one coefficient
    # keeps every cell off the rows and columns of that coefficient's monomial
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(1, 1): GaussianRational(Fraction(1, 2), -1)}), HoloPoly.variable(2, 1)])
    g = identity_variants(solve_h(f, 1, 1), 0, mono(1, 0))[1]
    listing = identity_mismatch(f, g, a, b, c)
    left, right = reference_sides(f, g, a, b, c)
    assert listing and listing == dense_difference(left, right)
    listed = {(ma, mb) for ma, mb, _ in listing}
    both = {(ma, mb) for ma, mb, _ in left.entries()} & {(ma, mb) for ma, mb, _ in right.entries()}
    one = Monomial((0, 0))
    assert (one, one) in both - listed
    if a == 1:
        assert len(both - listed) > 1


def compose_linear(f, v):
    """The map f(V z), each z_i replaced by the sum over j of V[i][j] z_j, by
    HoloPoly +, * and ** only; the weights of f are kept."""
    linear = apply_matrix(v, HoloMap.variables(f.n)).components
    comps = []
    for comp in f.components:
        poly = HoloPoly.zero(f.n)
        for mon, coeff in comp.terms.items():
            term = HoloPoly.constant(f.n, coeff)
            for z, exp in zip(linear, mon.exponents):
                term = term * z**exp
            poly = poly + term
        comps.append(poly)
    return HoloMap(f.n, comps, f.weights)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(minimal_maps(n_max=2), st.data())
def test_a_unitary_change_of_variables_keeps_ranks_inertia_and_the_identity(f, data):
    # a metamorphic oracle: ||V z||^2 = ||z||^2 for V unitary, so f and f(V z)
    # have congruent modification forms and the same ranks, and h(V z) solves
    # the identity for f(V z); V mixes the monomials of each degree, so the
    # kernel meets other blocks and pivots on a second basis
    v = cayley_transform(data.draw(skew_hermitian_matrices(f.n)))
    g = compose_linear(f, v)
    b, c = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    t = data.draw(st.integers(1, 3))
    assert inertia(_left_side(g, b, c)) == inertia(_left_side(f, b, c))
    h = solve_h(f, b, c)
    assert len(solve_h(g, b, c)) == len(h)
    assert reduce_minimal(g)[1] == reduce_minimal(f)[1]
    assert tensor_power_rank(g, t) == tensor_power_rank(f, t)
    assert verify_identity(g, compose_linear(h, v), 1, b, c)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(minimal_maps(n_max=2), st.data())
def test_a_unitary_change_of_the_components_of_h_keeps_the_identity(f, data):
    # h = solve_h(f, b, c) is weighted, ||h||^2 = h^H W h with W its diagonal of
    # weights.  M = Cayley(W^-1 K), K skew-Hermitian, has M^H W M = W: W^-1 K is
    # skew-Hermitian for the inner product of W.  So M h, with the weights of h,
    # has the squared norm of h and solves the identity h solves.  M mixes up to
    # three components of h and keeps the rest, so that its entries stay small
    b, c = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    h = solve_h(f, b, c)
    assert verify_identity(f, h, 1, b, c)
    mixed = data.draw(st.lists(st.integers(0, len(h) - 1), min_size=1, max_size=3, unique=True))
    k = data.draw(skew_hermitian_matrices(len(mixed)))
    block = cayley_transform([[value * GaussianRational(1 / h.weights[i]) for value in row] for row, i in zip(k, mixed)])
    m = [[GaussianRational(int(i == j)) for j in range(len(h))] for i in range(len(h))]
    for row, i in zip(block, mixed):
        for value, j in zip(row, mixed):
            m[i][j] = value
    g = HoloMap(h.n, apply_matrix(m, h).components, h.weights)
    assert verify_identity(f, g, 1, b, c)


@st.composite
def homogeneous_maps(draw):
    """Maps in n <= 2 variables with components homogeneous of one degree
    d <= 3: half of them (z_i g_j) for all i, j, whose squared norm
    ||z||^2 ||g||^2 is divisible by ||z||^2, the other half random."""
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 3))

    def random_polys(degree, count):
        mons = st.lists(st.sampled_from(monomials_of_degree(n, degree)), min_size=1, unique=True)
        return [HoloPoly(n, {mon: draw(scalars) for mon in draw(mons)}) for _ in range(count)]

    if draw(st.booleans()):
        g = random_polys(d - 1, draw(st.integers(1, 2)))
        comps = [z * poly for z in HoloMap.variables(n).components for poly in g]
    else:
        comps = random_polys(d, draw(st.integers(1, 3)))
    return HoloMap(n, comps)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(homogeneous_maps(), st.data())
def test_a_unitary_change_of_variables_keeps_divisibility_by_the_norm(f, data):
    # ||V z||^2 = ||z||^2, so ||f(V z)||^2 is divisible by ||z||^2 iff ||f||^2
    # is, and the two quotients are congruent
    g = compose_linear(f, cayley_transform(data.draw(skew_hermitian_matrices(f.n))))
    quotient = divide_by_norm(norm_form(f))
    moved = divide_by_norm(norm_form(g))
    assert (moved is None) == (quotient is None)
    if quotient is not None:
        assert inertia(moved) == inertia(quotient)


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
    assert parse_map_document(json_round_trip(serialize_map_document(f))) == f


def test_empty_weighted_map_round_trips():
    f = HoloMap(2, [], [])
    assert parse_map_document(json_round_trip(serialize_map_document(f))) == f


@PROPERTY
@given(hermitian_forms())
def test_form_documents_round_trip(form):
    assert parse_form_document(json_round_trip(serialize_form_document(form))) == form


@PROPERTY
@given(hermitian_forms())
def test_form_json_is_json_dumps_of_the_reference(form):
    # complex entries, denominators, 1x1 forms and the zero form, whose basis is empty
    reference = reference_serialize_form_document(form)
    assert serialize_form_json(form) == json.dumps(reference, indent=2) + "\n"
    assert serialize_form_document(form) == reference


def test_form_json_of_an_empty_quotient():
    quotient = divide_by_norm(HermitianForm.zero(3))
    reference = reference_serialize_form_document(quotient)
    assert reference == {"n": 3, "basis": [], "gram": []}
    assert serialize_form_json(quotient) == json.dumps(reference, indent=2) + "\n"


@st.composite
def blocked_forms(draw):
    """Hermitian forms, often split into interleaved diagonal blocks."""
    form = draw(hermitian_forms())
    group = draw(st.lists(st.integers(0, 2), min_size=form.size, max_size=form.size))
    gram = [
        [value if group[i] == group[j] else GaussianRational(0) for j, value in enumerate(row)]
        for i, row in enumerate(form.gram)
    ]
    return HermitianForm(form.n, form.basis, gram)


@PROPERTY
@given(blocked_forms())
def test_ldlh_entries_stay_minors(form):
    # until a zero pivot is moved, every pivot and column entry the kernel
    # yields is a minor of den * G, so Hadamard's inequality bounds it by the
    # product of the squared row norms
    norms = [0] * form.size
    for (i, _), (x, y) in form.cells.items():
        norms[i] += x * x + y * y
    bound = 1
    for norm in norms:
        bound *= max(1, norm)
    for _, pivot, _, column in _ldlh(form.size, form.den, form.cells):
        assert pivot * pivot <= bound
        assert all(x * x + y * y <= bound for _, x, y in column)
        if not pivot and column:
            break
