import copy
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mono, norm_value, rand_plain_map, rand_point, rand_poly, rand_scalar, reference_form_mul
from hermsos import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    check_modification_rank,
    grlex_key,
    identity_mismatch,
    monomials_of_degree,
    monomials_up_to_degree,
    norm_form,
    r_lambda,
    random_map,
    substitute_powers,
    tensor_power_rank,
    verify_injective,
)
from hermsos import polyalg


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)
    with pytest.raises(TypeError):
        HoloPoly(1, {mono(1): 0.5})


def test_a_real_scalar_hashes_as_the_rational_it_equals():
    # as complex does: equal values are one key of a set or a dict
    assert GaussianRational(1) in {1}
    assert GaussianRational(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {1: "a"}.get(GaussianRational(1)) == "a"
    assert hash(GaussianRational(-3)) == hash(-3) and hash(GaussianRational(0)) == hash(0)
    assert {GaussianRational(1, 2), GaussianRational(1, 2), GaussianRational(1)} == {GaussianRational(1, 2), 1}


def test_scalar_known_products():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a * b == GaussianRational(5, 5)
    assert a + b == GaussianRational(4, 1)
    assert a.conjugate() == GaussianRational(1, -2)
    assert a.abs2() == Fraction(5)
    assert GR_I * GR_I == GaussianRational(-1)
    assert (GR_I ** 4) == GR_ONE
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"


def test_scalar_field_axioms_random():
    rng = random.Random(101)
    for _ in range(25):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_scalar_int_fraction_interop():
    a = GaussianRational(Fraction(1, 2))
    assert a + 1 == GaussianRational(Fraction(3, 2))
    assert 2 * a == GR_ONE
    assert a == Fraction(1, 2)
    assert GaussianRational(3) == 3
    assert 1 - a == GaussianRational(Fraction(1, 2))
    assert (6 / GaussianRational(2)) == GaussianRational(3)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((-1, 0))
    with pytest.raises(ValueError):
        Monomial((1, None))
    m = mono(2, 0, 1)
    assert m.degree == 3
    assert m.n == 3
    assert str(m) == "z0^2*z2"
    assert str(mono(0, 0)) == "1"


@pytest.mark.parametrize("exps", [(True, 0), (1, -1), (1, 2.0), (Fraction(1), 0), ("1",)])
def test_monomial_rejects_bool_negative_and_non_int_exponents(exps):
    with pytest.raises(ValueError, match="^exponents must be non-negative integers$"):
        Monomial(exps)


def test_monomial_value_semantics():
    a, b = Monomial((2, 0, 1)), Monomial([2, 0, 1])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1 and len({a, b}) == 1
    assert a != Monomial((2, 1, 0)) and a != (2, 0, 1)
    assert a.exponents == (2, 0, 1) and a.degree == 3
    assert repr(a) == "Monomial(exponents=(2, 0, 1))"


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6).map(tuple))
def test_monomial_build_is_the_checked_constructor_without_the_check(exps):
    # the public constructor is the reference route
    built, checked = Monomial._build(exps), Monomial(exps)
    assert built == checked and hash(built) == hash(checked)
    assert built.degree == checked.degree and grlex_key(built) == grlex_key(checked)
    assert built.exponents == checked.exponents and str(built) == str(checked)


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6))
def test_monomial_build_returns_the_tables_monomial(exps):
    # tuple() of a list makes a new tuple each time: two equal keys, one monomial
    assert Monomial._build(tuple(exps)) is Monomial._build(tuple(exps))


def test_built_and_fresh_monomials_mix_by_value():
    built, fresh = Monomial._build((2, 0, 1)), Monomial((2, 0, 1))
    assert built is not fresh and built == fresh and hash(built) == hash(fresh)
    assert len({built: 1, fresh: 2}) == 1 and len({built, fresh}) == 1
    assert {fresh: "x"}[built] == "x" and {built: "y"}[fresh] == "y"
    assert HoloPoly(3, {fresh: 1}) == HoloPoly(3, {built: 1})
    assert HoloPoly(3, {fresh: 1}).cells == {built: (1, 0)}


def test_monomial_table_is_bounded_and_emptied_whole(monkeypatch):
    cap = 5
    monkeypatch.setattr(polyalg, "MONOMIAL_TABLE_MAX", cap)
    monkeypatch.setattr(polyalg, "_MONOMIALS", {})
    before = [Monomial._build((k, 0)) for k in range(cap)]
    assert len(polyalg._MONOMIALS) == cap
    Monomial._build((cap, 0))  # the table is full: emptied, then it holds this one
    assert len(polyalg._MONOMIALS) == 1
    after = []
    for k in range(cap):
        after.append(Monomial._build((k, 0)))
        assert len(polyalg._MONOMIALS) <= cap
    for old, new in zip(before, after):
        assert old is not new and old == new and hash(old) == hash(new)
        assert {old: 1}[new] == 1 and grlex_key(old) == grlex_key(new)
    rng = random.Random(17)
    for _ in range(200):
        Monomial._build((rng.randint(0, 30), rng.randint(0, 30)))
        assert len(polyalg._MONOMIALS) <= cap
    # a product whose monomials outnumber the table many times over is still right
    form = norm_form(HoloMap(2, [HoloPoly(2, {mono(i, j): i - j + 1 for i in range(3) for j in range(3)})]))
    assert form * form == reference_form_mul(form, form)


@pytest.mark.parametrize("name", ["exponents", "degree", "_grlex", "_hash", "_name", "other"])
def test_monomial_is_immutable(name):
    m = mono(1, 2)
    with pytest.raises(AttributeError):
        setattr(m, name, (0, 0))
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert m == mono(1, 2) and grlex_key(m) == (3, (-1, -2))


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_keep_values(copier):
    m = mono(1, 2)
    poly = HoloPoly(2, {m: GaussianRational(Fraction(1, 3), 2), mono(0, 1): 5})
    form = norm_form(HoloMap(2, [poly, HoloPoly.variable(2, 0)]))
    m2, poly2, form2 = copier(m), copier(poly), copier(form)
    assert m2 == m and hash(m2) == hash(m) and grlex_key(m2) == grlex_key(m)
    assert poly2 == poly and str(poly2) == str(poly)
    assert form2 == form and str(form2) == str(form)
    assert form2.coefficient(m, m) == form.coefficient(m, m)
    assert (form2 + form) == form * HermitianForm.constant(2, 2)


def test_grlex_order():
    got = monomials_up_to_degree(2, 2)
    want = [mono(0, 0), mono(1, 0), mono(0, 1), mono(2, 0), mono(1, 1), mono(0, 2)]
    assert got == want
    assert sorted(want, key=grlex_key) == want


def test_monomials_of_degree_counts():
    for n in (1, 2, 3, 4):
        for d in range(5):
            mons = monomials_of_degree(n, d)
            assert len(mons) == comb(n + d - 1, d)
            assert len(set(mons)) == len(mons)
            assert all(m.degree == d for m in mons)
            assert mons == sorted(mons, key=grlex_key), (n, d)


def test_poly_constructors_and_structure():
    z0 = HoloPoly.variable(2, 0)
    z1 = HoloPoly.variable(2, 1)
    p = z0 * z0 + 2 * z1 - HoloPoly.constant(2, 3)
    assert p.degree == 2
    assert p.terms.get(mono(0, 0)) == GaussianRational(-3)
    assert not p.vanishes_at_zero
    assert (z0 - z0).is_zero
    assert HoloPoly.zero(2).degree == 0
    assert str(p) == "-3 + 2*z1 + z0^2"


def test_poly_arithmetic_matches_evaluation():
    rng = random.Random(202)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        a = rand_poly(rng, n, degree_max=3, vanish=False)
        b = rand_poly(rng, n, degree_max=3, vanish=False)
        pt = rand_point(rng, n)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a ** 2).evaluate(pt) == a.evaluate(pt) ** 2
        scalar = rand_scalar(rng)
        assert (a * scalar).evaluate(pt) == (scalar * a).evaluate(pt) == a.evaluate(pt) * scalar
        # a and b have real coefficients; these two factors have complex ones
        ca, cb = a + b * GR_I, b + a * scalar
        assert (ca * cb).evaluate(pt) == ca.evaluate(pt) * cb.evaluate(pt)
        assert (a * b) == (b * a)
        assert ((a * b) * a) == (a * (b * a))


@pytest.mark.parametrize("build,message", [
    (lambda: HoloPoly(True, {}), "a polynomial needs a positive variable count"),
    (lambda: HoloPoly.variable(True, 0), "a polynomial needs a positive variable count"),
    (lambda: HoloPoly.constant(True, 1), "a polynomial needs a positive variable count"),
    (lambda: HoloMap(True, []), "a map needs a positive variable count"),
    (lambda: HoloMap.variables(True), "a polynomial needs a positive variable count"),
    (lambda: HermitianForm(True, [], []), "a form needs a positive variable count"),
    (lambda: HermitianForm.zero(True), "a form needs a positive variable count"),
    (lambda: HermitianForm.from_entries(True, {}), "a form needs a positive variable count"),
    (lambda: HoloMap(True, [], ()), "a map needs a positive variable count"),
    (lambda: HoloMap(-3, [], ()), "a map needs a positive variable count"),
    (lambda: HoloMap("x", [], ()), "a map needs a positive variable count"),
    (lambda: monomials_of_degree(True, 2), "need at least one variable"),
    (lambda: monomials_of_degree(2.0, 2), "need at least one variable"),
], ids=[
    "poly", "poly-variable", "poly-constant", "map", "map-variables", "form", "form-zero", "form-from-entries",
    "scaled-map-bool", "scaled-map-negative", "scaled-map-str", "monomials-bool", "monomials-float",
])
def test_a_bool_is_not_a_variable_count(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


Z0, Z0_2, F2 = mono(1), mono(1, 0), HoloMap(2, [HoloPoly.variable(2, 0), HoloPoly.variable(2, 1)])


@pytest.mark.parametrize("build,error,message", [
    (lambda: GaussianRational(True), TypeError, "expected an exact rational, got bool"),
    (lambda: GaussianRational(1, False), TypeError, "expected an exact rational, got bool"),
    (lambda: HoloPoly(1, {Z0: True}), TypeError, "coefficients must be exact rationals"),
    (lambda: HoloPoly(1, {Z0: GaussianRational(1)}) * True, TypeError, None),
    (lambda: HermitianForm(1, [Z0], [[True]]), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm.from_entries(1, {(Z0, Z0): False}), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm.constant(1, True), TypeError, "gram entries must be exact rationals"),
    (lambda: GaussianRational(2) ** True, ValueError, "exponent must be a non-negative integer"),
    (lambda: HoloPoly.variable(1, 0) ** True, ValueError, "exponent must be a non-negative integer"),
    (lambda: norm_form(F2) ** True, ValueError, "form powers require a positive integer exponent"),
    (lambda: substitute_powers(F2, [True, 2]), ValueError, "substitution exponents must be non-negative integers"),
    (lambda: identity_mismatch(F2, F2, True, 1, 1), ValueError, "exponent a must be a positive integer"),
    (lambda: tensor_power_rank(F2, True), ValueError, "power must be a positive integer"),
    (lambda: check_modification_rank(True, 1, 3), ValueError, "n must be a positive integer"),
    (lambda: monomials_of_degree(2, True), ValueError, "degree must be non-negative"),
    (lambda: monomials_of_degree(1, True), ValueError, "degree must be non-negative"),
    (lambda: monomials_of_degree(2, 1.0), ValueError, "degree must be non-negative"),
    (lambda: monomials_up_to_degree(2, 1.5), ValueError, "degree must be non-negative"),
    (lambda: monomials_up_to_degree(2, True), ValueError, "degree must be non-negative"),
    (lambda: HoloMap(1, [HoloPoly.variable(1, 0)], [True]), TypeError, "expected an exact rational, got bool"),
    (lambda: HoloMap(1, [HoloPoly.variable(1, 0)], [0.5]), TypeError, "expected an exact rational, got float"),
    (lambda: r_lambda(True), TypeError, "expected an exact rational, got bool"),
    (lambda: r_lambda(0.5), TypeError, "expected an exact rational, got float"),
    (lambda: random_map(random.Random(1), 1, True, 1), ValueError, "p, degree_max, and height must be positive"),
    (lambda: random_map(random.Random(1), 1, 1.5, 1), ValueError, "p, degree_max, and height must be positive"),
    (lambda: random_map(random.Random(1), 1, 1, 2.0), ValueError, "p, degree_max, and height must be positive"),
    (lambda: random_map(random.Random(1), 1, 1, 1, True), ValueError, "p, degree_max, and height must be positive"),
    (lambda: verify_injective((1,), 1, 1.5), ValueError, "t must be a positive integer"),
    (lambda: verify_injective((1,), 1, True), ValueError, "t must be a positive integer"),
    (lambda: verify_injective((1, 2), 2, -1), ValueError, "t must be a positive integer"),
    (lambda: verify_injective((1,), True, 1), ValueError, "n must be a positive integer"),
    (lambda: verify_injective((1.5,), 1, 2), ValueError, "substitution exponents must be non-negative integers"),
    (lambda: verify_injective((-1,), 1, 2), ValueError, "substitution exponents must be non-negative integers"),
    (lambda: verify_injective((True,), 1, 2), ValueError, "substitution exponents must be non-negative integers"),
], ids=[
    "scalar-re", "scalar-im", "poly-coefficient", "poly-times-bool", "form-gram", "form-entries", "form-constant",
    "scalar-power", "poly-power", "form-power", "substitute-powers", "modification-spec", "tensor-power-rank",
    "modification-rank", "monomials-degree-bool", "monomials-degree-bool-one-variable", "monomials-degree-float",
    "monomials-up-to-float", "monomials-up-to-bool", "scaled-map-weight-bool", "scaled-map-weight-float",
    "r-lambda-bool", "r-lambda-float", "random-map-p-bool", "random-map-p-float", "random-map-degree-float",
    "random-map-height-bool", "injective-t-float", "injective-t-bool", "injective-t-negative", "injective-n-bool",
    "injective-exponent-float", "injective-exponent-negative", "injective-exponent-bool",
])
def test_a_bool_is_neither_a_scalar_nor_an_integer_argument(build, error, message):
    # the JSON readers refuse a bool as a rational and as a count; so do the constructors
    with pytest.raises(error) as info:
        build()
    if message is not None:
        assert str(info.value) == message


def test_a_scalar_string_reads_as_the_document_reader_reads_it():
    assert GaussianRational("1_000", "-2_5/1_0") == GaussianRational(1000, Fraction(-5, 2))
    assert GaussianRational(" 3/4 ") == GaussianRational(Fraction(3, 4))
    for text in ("1__000", "_1", "1e5000"):
        with pytest.raises(ValueError):
            GaussianRational(text)
    # the plain literals are read into integers, with Fraction's message for a zero denominator
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-1, 0\)$"):
        GaussianRational("-1/0")


@pytest.mark.parametrize("text,pair", [
    ("7", (7, 1)), ("-4/6", (-4, 6)), ("007/010", (7, 10)), ("-0", (0, 1)),
    (" 3/4 ", (3, 4)), ("1_3/2", (13, 2)), ("2.5e0", (5, 2)), ("-4/6 ", (-2, 3)),
])
def test_the_literal_reader_returns_a_pair_unreduced_only_for_plain_literals(text, pair):
    assert polyalg._parse_rational(text) == pair


@pytest.mark.parametrize("build,error,message", [
    (lambda: HermitianForm(1, [Z0_2], [[1]]), ValueError, "basis monomial has wrong variable count"),
    (lambda: HermitianForm(1, [(1,)], [[1]]), TypeError, "basis entries must be Monomial"),
    (lambda: HermitianForm(1, [5], [[1]]), TypeError, "basis entries must be Monomial"),
    (lambda: HermitianForm.from_entries(1, {(Z0, (1,)): 1}), TypeError, "basis entries must be Monomial"),
    (lambda: HermitianForm(1, [Z0, Z0], [[1, 0], [0, 1]]), ValueError, "basis monomials must be distinct"),
    (lambda: HermitianForm(1, [Z0], [[1, 0]]), ValueError, "gram matrix shape does not match the basis"),
    (lambda: HermitianForm(1, [Z0], []), ValueError, "gram matrix shape does not match the basis"),
    (lambda: HermitianForm(1, [Z0], [[0.5]]), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm(1, [Z0], [["1"]]), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm(1, [mono(0), Z0], [[1, 1], [2, 1]]), ValueError, "gram matrix is not Hermitian"),
    (lambda: HermitianForm(1, [Z0], [[GR_I]]), ValueError, "gram matrix is not Hermitian"),
    # two failures: the first check in the constructor's order is reported
    (lambda: HermitianForm(1, [Z0, Z0], [[1]]), ValueError, "basis monomials must be distinct"),
    (lambda: HermitianForm(1, [Z0_2, Z0_2], [[1]]), ValueError, "basis monomials must be distinct"),
    (lambda: HermitianForm(1, [Z0_2], [[0.5]]), ValueError, "basis monomial has wrong variable count"),
    (lambda: HermitianForm(1, [Z0], [[0.5, 1]]), ValueError, "gram matrix shape does not match the basis"),
    (lambda: HermitianForm(1, [mono(0), Z0], [[1, 0.5], [2, 1]]), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm(1, [mono(0), Z0], [[1, 2], [0.5, 1]]), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm.from_entries(1, {(Z0, Z0_2): 1}), ValueError, "basis monomial has wrong variable count"),
    (lambda: HermitianForm.from_entries(1, {(Z0, Z0): 0.5}), TypeError, "gram entries must be exact rationals"),
    (lambda: HermitianForm.from_entries(1, {(mono(0), Z0): 1}), ValueError, "gram matrix is not Hermitian"),
    (lambda: HermitianForm.from_entries(1, {(Z0, Z0): GR_I}), ValueError, "gram matrix is not Hermitian"),
    (lambda: HermitianForm.from_entries(1, {(Z0_2, Z0_2): 0.5}), ValueError, "basis monomial has wrong variable count"),
    (lambda: HermitianForm.from_entries(1, {(mono(0), Z0): 1, (Z0, Z0): 0.5}), TypeError,
     "gram entries must be exact rationals"),
    (lambda: HermitianForm.from_entries(1, {(mono(0), Z0): 1, (Z0, Z0_2): 1}), ValueError,
     "basis monomial has wrong variable count"),
    # the shape is checked before the basis monomials, and every basis monomial before any entry
    (lambda: HermitianForm(1, [Z0_2], [[1, 0]]), ValueError, "gram matrix shape does not match the basis"),
    (lambda: HermitianForm.from_entries(1, {(Z0, Z0): 0.5, (Z0_2, Z0_2): 1}), ValueError,
     "basis monomial has wrong variable count"),
], ids=[
    "wrong-n", "not-a-monomial", "an-int", "entries-not-a-monomial", "duplicate", "short-row", "no-rows", "float", "string", "not-hermitian",
    "complex-diagonal", "duplicate-and-shape", "duplicate-and-wrong-n", "wrong-n-and-float", "shape-and-float",
    "float-and-not-hermitian", "not-hermitian-and-float", "entries-wrong-n", "entries-float",
    "entries-not-hermitian", "entries-complex-diagonal", "entries-wrong-n-and-float",
    "entries-not-hermitian-and-float", "entries-not-hermitian-and-wrong-n", "wrong-n-and-shape",
    "entries-float-then-wrong-n",
])
def test_form_constructor_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: HermitianForm(1, [Z0], 5), "gram must be a sequence of rows"),
    (lambda: HermitianForm(1, [Z0], [5]), "gram must be a sequence of rows"),
    (lambda: HermitianForm(1, 5, [[1]]), "basis must be a sequence of monomials"),
    # checked before the basis monomials are compared
    (lambda: HermitianForm(1, [Z0, Z0], 5), "gram must be a sequence of rows"),
    (lambda: verify_injective(5, 1, 1), "substitution exponents must be a sequence"),
    (lambda: substitute_powers(F2, 5), "substitution exponents must be a sequence"),
    (lambda: substitute_powers(F2, iter([1, 2])), "substitution exponents must be a sequence"),
], ids=["gram", "row", "basis", "gram-and-duplicate", "verify-injective", "substitute-powers", "iterator"])
def test_a_container_argument_that_is_not_one_is_refused(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_the_dense_constructor_takes_any_iterables():
    listed = HermitianForm(1, [mono(0), Z0], [[1, 2], [2, 5]])
    assert HermitianForm(1, (m for m in (mono(0), Z0)), iter([iter([1, 2]), (2, 5)])) == listed


def test_map_basics():
    f = HoloMap.variables(3)
    assert len(f) == 3
    assert f.max_degree == 1
    assert f.vanishes_at_zero
    assert [w for w, _ in f.weighted_components()] == [Fraction(1)] * 3
    assert f.weights is None and str(f) == "(z0, z1, z2)"
    weighted = HoloMap(3, f.components, [Fraction(1, 2), 1, 3])
    assert weighted != f and HoloMap(3, f.components, [1, 1, 1]) != f
    assert str(weighted) == "(1/2*|z0|^2, 1*|z1|^2, 3*|z2|^2)"
    assert repr(weighted) == "HoloMap(3, (1/2*|z0|^2, 1*|z1|^2, 3*|z2|^2))"
    g = HoloMap(3, [HoloPoly.constant(3, 1)])
    assert not g.vanishes_at_zero
    with pytest.raises(ValueError):
        HoloMap(2, [HoloPoly.variable(3, 0)])


def test_norm_form_matches_pointwise():
    rng = random.Random(303)
    for _ in range(20):
        n = rng.choice((1, 2))
        f = rand_plain_map(rng, n, rng.randint(1, 3))
        form = norm_form(f)
        gram = form.gram
        assert all(
            gram[i][j] == gram[j][i].conjugate()
            for i in range(form.size)
            for j in range(form.size)
        )
        for _ in range(3):
            pt = rand_point(rng, n)
            assert form.evaluate(pt) == GaussianRational(norm_value(f, pt))


def test_norm_form_known():
    # |z0 + i z1|^2 has the off-diagonal coupling -i between z0 and z1
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(0, 1): GR_I})])
    form = norm_form(f)
    assert form.coefficient(mono(1, 0), mono(1, 0)) == GR_ONE
    assert form.coefficient(mono(0, 1), mono(0, 1)) == GR_ONE
    assert form.coefficient(mono(1, 0), mono(0, 1)) == -GR_I
    assert form.coefficient(mono(0, 1), mono(1, 0)) == GR_I


def test_form_product_matches_pointwise():
    rng = random.Random(404)
    for _ in range(12):
        n = rng.choice((1, 2))
        a = norm_form(rand_plain_map(rng, n, 2))
        b = norm_form(rand_plain_map(rng, n, 2))
        prod = a * b
        total = a + b
        for _ in range(3):
            pt = rand_point(rng, n, height=2)
            assert prod.evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert total.evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_form_product_binomial_table():
    # (1 + |z|^2)^4 is diagonal with binomial coefficients 1,4,6,4,1
    one = HermitianForm.constant(1, 1)
    z = norm_form(HoloMap.variables(1))
    p4 = (one + z) ** 4
    for k in range(5):
        assert p4.coefficient(mono(k), mono(k)) == GaussianRational(comb(4, k))
    assert p4.size == 5


def test_form_pow_requires_positive_exponent():
    a = HermitianForm.constant(1, 1)
    with pytest.raises(ValueError):
        a ** 0
    assert a ** 1 == a


def test_tensor_norm_identity():
    def tensor(f, g):
        # the products f_i * g_j, each weighted by the product of their weights
        pairs = [(wi * wj, fi * gj) for wi, fi in f.weighted_components() for wj, gj in g.weighted_components()]
        return HoloMap(f.n, [poly for _, poly in pairs], [w for w, _ in pairs])

    rng, weights = random.Random(505), random.Random(507)
    for _ in range(10):
        n = rng.choice((1, 2))
        f = rand_plain_map(rng, n, rng.randint(1, 2))
        g = rand_plain_map(rng, n, rng.randint(1, 2))
        assert norm_form(tensor(f, g)) == norm_form(f) * norm_form(g)
        # a weighted factor keeps the identity ||f (x) g||^2 = ||f||^2 ||g||^2
        w = HoloMap(n, f.components, [Fraction(weights.randint(1, 5), weights.randint(1, 3)) for _ in f.components])
        for a, b in ((w, g), (g, w), (w, w)):
            assert norm_form(tensor(a, b)) == norm_form(a) * norm_form(b)


def test_substitute_powers():
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(0, 1): 1})])
    collapsed = substitute_powers(f, (1, 1))
    assert collapsed.components[0] == HoloPoly(1, {mono(1): 2})
    split = substitute_powers(f, (1, 2))
    assert split.components[0] == HoloPoly(1, {mono(1): 1, mono(2): 1})
    assert split.weights is None
    # a weighted map keeps its weights
    assert substitute_powers(HoloMap(2, f.components, [Fraction(3, 2)]), (1, 2)) == HoloMap(1, split.components, [Fraction(3, 2)])
    with pytest.raises(ValueError):
        substitute_powers(f, (1,))


def test_form_constructor_validations():
    with pytest.raises(ValueError):
        HermitianForm(1, [mono(0), mono(0)], [[GR_ONE, GR_ONE], [GR_ONE, GR_ONE]])
    with pytest.raises(ValueError):
        HermitianForm(1, [mono(0), mono(1)], [[GR_ONE, GR_I], [GR_I, GR_ONE]])
    with pytest.raises(ValueError):
        HermitianForm(1, [mono(0)], [[GR_ONE, GR_ZERO]])
    # zero rows are pruned and the basis is sorted
    a = HermitianForm(
        1,
        [mono(2), mono(0), mono(1)],
        [
            [GR_ONE, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ONE, GR_ZERO],
            [GR_ZERO, GR_ZERO, GR_ZERO],
        ],
    )
    assert a.basis == (mono(0), mono(2))
    assert a.size == 2


def test_form_entries_and_restrict():
    f = HoloMap(2, [HoloPoly(2, {mono(1, 0): 1, mono(0, 1): 2})])
    a = norm_form(f)
    assert a.coefficient(mono(5, 5), mono(1, 0)) == GR_ZERO
    assert a.degrees() == {1}
    total = HermitianForm.constant(2, 7)
    assert total.coefficient(mono(0, 0), mono(0, 0)) == GaussianRational(7)


@pytest.mark.parametrize("value", [0.5, True, "1/2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("evaluate,exact", [
    (Monomial((1, 0)).evaluate, GaussianRational(1, 1)),
    (HoloPoly.variable(2, 0).evaluate, GaussianRational(1, 1)),
    (HoloMap(2, [HoloPoly.variable(2, 0)]).evaluate, [GaussianRational(1, 1)]),
    (norm_form(HoloMap(2, [HoloPoly.variable(2, 0)])).evaluate, GaussianRational(2)),
], ids=["monomial", "poly", "map", "form"])
def test_evaluate_refuses_a_coordinate_that_is_not_exact(evaluate, exact, value):
    # checked where evaluation starts, also at a coordinate whose exponent is 0
    for point in ([value, 1], [1, value]):
        with pytest.raises(TypeError) as info:
            evaluate(point)
        assert str(info.value) == f"expected an exact scalar coordinate, got {type(value).__name__}"
    # z0 = 1 + i, and an int or a Fraction is taken as it was before
    assert evaluate([GaussianRational(1, 1), Fraction(1, 2)]) == evaluate([GaussianRational(1, 1), 3]) == exact


@pytest.mark.parametrize("evaluate", [
    Monomial((1, 0)).evaluate,
    HoloPoly.variable(2, 0).evaluate,
    HoloMap(2, [HoloPoly.variable(2, 0)]).evaluate,
    norm_form(HoloMap(2, [HoloPoly.variable(2, 0)])).evaluate,
], ids=["monomial", "poly", "map", "form"])
def test_evaluate_refuses_a_point_of_the_wrong_dimension(evaluate):
    # a point is not zipped short against the exponents, nor cut to their length
    for point in ([2], [2, 3, 4]):
        with pytest.raises(ValueError) as info:
            evaluate(point)
        assert str(info.value) == "point has wrong dimension"


def test_form_evaluate_real():
    rng = random.Random(808)
    for _ in range(10):
        f = rand_plain_map(rng, 2, 2)
        a = norm_form(f)
        pt = rand_point(rng, 2)
        value = a.evaluate(pt)
        assert value.im == 0
        assert value.re >= 0
