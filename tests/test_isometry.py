import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import comb
from operator import mul

import pytest

from conftest import drop_constant, mono, norm_value, rand_plain_map, rand_point, rand_poly
from hermsos import (
    GR_ONE,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    NotMinimalError,
    NotNormalizedError,
    divide_by_norm,
    extract_sos,
    extremal_power_lower,
    grams_equal,
    identity_mismatch,
    inertia,
    monomials_up_to_degree,
    norm_form,
    one_plus_norm,
    r_lambda,
    random_map,
    reduce_minimal,
    solve_h,
    tensor_power_rank,
    verify_identity,
)
from hermsos.isometry import _check_minimal, _left_side, _unit_diagonal
from hermsos.rankdecomp import _PRIME, _ROOT, _rank_mod_p


def test_one_plus_norm_z_binomial():
    p = one_plus_norm(HoloMap.variables(1)) ** 3
    for k in range(4):
        assert p.coefficient(mono(k), mono(k)) == GaussianRational(comb(3, k))


@pytest.mark.parametrize("n", range(1, 7))
def test_one_plus_norm_z_is_one_plus_the_norm_of_the_variables(n):
    # 1 + ||z||^2 written out as the unit diagonal over 1, z_0, ..., z_{n-1};
    # ||z||^2 built from its cells, for divide_by_norm, is the norm form of the variables
    mons = [Monomial([0] * n)] + [Monomial([int(i == k) for i in range(n)]) for k in range(n)]
    assert one_plus_norm(HoloMap.variables(n)) == HermitianForm.from_entries(n, {(m, m): 1 for m in mons})
    assert _unit_diagonal(n) == norm_form(HoloMap.variables(n))


def test_modification_spec_validation():
    # the data (f, a, b, c) of an identity, checked where solve_h and identity_mismatch take it
    f = HoloMap.variables(2)
    h = solve_h(f, 1, 1)
    assert h.n == 2
    assert identity_mismatch(f, h, 1, 1, 1) == []
    with pytest.raises(ValueError, match="exponents must have gcd 1"):
        identity_mismatch(f, h, 2, 2, 2)
    with pytest.raises(ValueError, match="exponent a must be a positive integer"):
        identity_mismatch(f, h, 0, 1, 1)
    with pytest.raises(NotNormalizedError):
        solve_h(HoloMap(1, [HoloPoly.constant(1, 1)]), 1, 1)
    dep = HoloMap(1, [HoloPoly.variable(1, 0), 2 * HoloPoly.variable(1, 0)])
    with pytest.raises(NotMinimalError):
        solve_h(dep, 1, 1)


def test_modification_form_matches_pointwise():
    rng = random.Random(2001)
    for _ in range(8):
        n = rng.choice((1, 2))
        f = random_map(rng, n, rng.randint(1, 2), 2, 3)
        a, b, c = rng.choice(((1, 1, 1), (2, 2, 1), (1, 2, 1), (3, 1, 2)))
        form = _left_side(f, b, c)
        for _ in range(3):
            pt = rand_point(rng, n, height=2)
            z_norm = Fraction(1) + sum(v.abs2() for v in pt)
            f_norm = Fraction(1) + norm_value(f, pt)
            assert form.evaluate(pt) == GaussianRational(z_norm**b * f_norm**c)


def test_solve_h_single_coordinate():
    f = HoloMap(2, [HoloPoly.variable(2, 0)])
    h = solve_h(f, 1, 1)
    assert len(h) == 4
    expected = HoloMap(
        2,
        [HoloPoly.variable(2, 0), HoloPoly.variable(2, 1), HoloPoly.monomial(2, (2, 0)), HoloPoly.monomial(2, (1, 1))],
        [Fraction(2), Fraction(1), Fraction(1), Fraction(1)],
    )
    assert grams_equal(h, expected)
    assert verify_identity(f, h, 1, 1, 1)


def test_solve_h_both_coordinates():
    f = HoloMap.variables(2)
    h = solve_h(f, 1, 1)
    # (1+|z0|^2+|z1|^2)^2 expands with multinomial weights; five squares
    assert len(h) == 5
    expected = HoloMap(
        2,
        [
            HoloPoly.variable(2, 0),
            HoloPoly.variable(2, 1),
            HoloPoly.monomial(2, (2, 0)),
            HoloPoly.monomial(2, (1, 1)),
            HoloPoly.monomial(2, (0, 2)),
        ],
        [Fraction(2), Fraction(2), Fraction(1), Fraction(2), Fraction(1)],
    )
    assert grams_equal(h, expected)
    assert verify_identity(f, h, 1, 1, 1)


def test_solve_h_identity_random():
    rng = random.Random(2002)
    for b, c in ((1, 1), (2, 1), (1, 2), (3, 2)):
        n = rng.choice((1, 2))
        f = random_map(rng, n, rng.randint(1, 2), 2, 3)
        h = solve_h(f, b, c)
        assert verify_identity(f, h, 1, b, c)
        assert h.vanishes_at_zero
        # count equals the rank of the non-constant block
        total = _left_side(f, b, c)
        block = drop_constant(total)
        assert len(h) == inertia(block).pos


def test_solve_h_counts_its_block_only_past_the_degree_bound():
    # f = (z0^12) in 2 variables at b = 12: the monomials of degree <= 24 besides 1
    # number C(26, 2) - 1 = 324, but the block has 2 * C(14, 2) - 2 = 180
    f = HoloMap(2, [HoloPoly.monomial(2, (12, 0))])
    assert _left_side(f, 12, 1).size - 1 == 180
    assert solve_h(f, 12, 1, 180) == solve_h(f, 12, 1)
    with pytest.raises(ValueError, match="a block of 180 basis monomials; the limit is 179$"):
        solve_h(f, 12, 1, 179)
    # the count is the size of the expanded block, complex and weighted maps too
    rng = random.Random(2801)
    for _ in range(20):
        n, b, c = rng.choice((1, 2)), rng.randint(1, 3), rng.randint(1, 2)
        f, _ = reduce_minimal(rand_plain_map(rng, n, rng.randint(1, 2)))
        if rng.random() < 0.5:
            f = HoloMap(n, f.components, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in f.components])
        size = _left_side(f, b, c).size - 1
        with pytest.raises(ValueError, match=f"a block of {size} basis monomials; the limit is 0$"):
            solve_h(f, b, c, 0)


def test_the_left_side_is_the_product_of_the_powers_of_the_two_norms():
    # the shifted copies of (1 + ||f||^2)^c against the Gram convolution of the powers,
    # on plain maps with real coefficients, weighted maps and plain complex maps
    rng = random.Random(2901)
    for i in range(36):
        n, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        f = rand_plain_map(rng, n, rng.randint(0, 3))
        if i % 3 == 0:
            f = HoloMap(n, [HoloPoly(n, {m: v.re for m, v in poly.terms.items()}) for poly in f.components])
        elif i % 3 == 1:
            f = HoloMap(n, f.components, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in f.components])
        assert _left_side(f, b, c) == one_plus_norm(HoloMap.variables(n)) ** b * one_plus_norm(f) ** c


def few_monomial_map(rng, n, p):
    """A random map of p components, each a combination of the same at most p
    monomials with coefficients in {-1, 0, 1, i}, so that dependent components
    and zero components are common."""
    pool = [m for m in monomials_up_to_degree(n, 2) if m.degree]
    mons = rng.sample(pool, rng.randint(1, min(p, len(pool))))
    values = (-1, 0, 0, 1, GaussianRational(0, 1))
    return HoloMap(n, [HoloPoly(n, {m: rng.choice(values) for m in mons}) for _ in range(p)])


def test_minimality_of_maps_with_no_more_monomials_than_components():
    # dependent and zero components are common here; the check must agree with
    # the reference route, reduce_minimal
    rng = random.Random(2902)
    x0, x1 = HoloPoly.variable(2, 0), HoloPoly.variable(2, 1)
    maps = [
        HoloMap(2, [x0, 2 * x0]),
        HoloMap(2, [x0 + x1, x0, x1]),
        HoloMap(2, [x0, HoloPoly.zero(2)]),
        HoloMap(2, [x0 + x1, x0 - x1]),
        HoloMap(2, []),
    ]
    maps += [few_monomial_map(rng, rng.randint(1, 3), rng.randint(1, 4)) for _ in range(60)]
    minimal = []
    for f in maps:
        if f.components and rng.random() < 0.5:
            f = HoloMap(f.n, f.components, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in f.components])
        expected = reduce_minimal(f)[1] == len(f)
        minimal.append(expected)
        if expected:
            _check_minimal(f)
            assert len(solve_h(f, 1, 1)) == len(solve_h(f, 1, 1, 10**6))
        else:
            with pytest.raises(NotMinimalError):
                _check_minimal(f)
            with pytest.raises(NotMinimalError):
                solve_h(f, 1, 1)
            with pytest.raises(NotMinimalError):
                identity_mismatch(f, HoloMap(f.n, []), 1, 1, 1)
    assert minimal[:5] == [False, False, False, True, True]
    assert 10 < minimal.count(True) < len(maps) - 10


def test_more_components_than_monomials_are_refused_by_the_modular_rank(monkeypatch):
    # the modular rank reaches the count of distinct monomials, the rank bound,
    # so it certifies the dependency and no Gram matrix is eliminated
    def eliminate(vectors):
        raise AssertionError("a Gram matrix was eliminated")

    monkeypatch.setattr("hermsos.rankdecomp._gram_pivots", eliminate)
    x0, x1 = HoloPoly.variable(2, 0), HoloPoly.variable(2, 1)
    for f in (HoloMap(2, [x0, 2 * x0]), HoloMap(2, [x0 + x1, x0, x1 - GaussianRational(0, 1) * x0])):
        with pytest.raises(NotMinimalError):
            _check_minimal(f)
        with pytest.raises(NotMinimalError):
            solve_h(f, 1, 1)


def test_solve_h_matches_the_factor_of_the_block_without_the_constant():
    # the old route: restrict the form to its non-constant block, then factor
    rng = random.Random(2004)
    for b, c in ((1, 1), (2, 1), (1, 2), (3, 2)):
        f = random_map(rng, rng.choice((1, 2)), rng.randint(1, 2), 2, 3)
        block = drop_constant(_left_side(f, b, c))
        assert solve_h(f, b, c) == extract_sos(block)


def test_solve_h_two_routes_agree():
    rng = random.Random(2003)
    for _ in range(4):
        n = rng.choice((1, 2))
        f = random_map(rng, n, rng.randint(1, 2), 2, 3)
        b, c = rng.choice(((1, 2), (2, 2)))
        direct = solve_h(f, b, c)
        # route through g with 1+||g||^2 = (1+||f||^2)^c, then exponent 1
        power = one_plus_norm(f) ** c
        g = extract_sos(drop_constant(power))
        assert grams_equal(direct, solve_h(g, b, 1))


def test_solve_h_rejections():
    with pytest.raises(NotNormalizedError):
        solve_h(HoloMap(1, [HoloPoly(1, {mono(0): 1, mono(1): 1})]), 1, 1)
    dep = HoloMap(2, [HoloPoly.variable(2, 0), 2 * HoloPoly.variable(2, 0)])
    with pytest.raises(NotMinimalError):
        solve_h(dep, 1, 1)


def test_verify_identity_example_family():
    p_form = one_plus_norm(HoloMap.variables(1)) * r_lambda(7)
    s_form = r_lambda(7) * r_lambda(7)
    f = extract_sos(drop_constant(p_form))
    g = extract_sos(drop_constant(s_form))
    assert len(f) == 5
    assert len(g) == 6
    assert verify_identity(g, f, 2, 2, 1)
    assert identity_mismatch(g, f, 2, 2, 1) == []


def test_verify_identity_detects_mismatch():
    f = HoloMap(2, [HoloPoly.variable(2, 0)])
    h = solve_h(f, 1, 1)
    wrong = HoloMap(2, h.components, (h.weights[0] + 1,) + h.weights[1:])
    assert not verify_identity(f, wrong, 1, 1, 1)
    diff = identity_mismatch(f, wrong, 1, 1, 1)
    assert diff
    assert all(value for _, _, value in diff)


@pytest.mark.parametrize("a", [1, 2])
def test_a_variable_count_mismatch_is_refused_before_any_expansion(a, monkeypatch):
    f, h = HoloMap.variables(2), HoloMap.variables(1)

    def expand(*args):
        raise AssertionError("the left side was expanded")

    monkeypatch.setattr("hermsos.isometry._left_side", expand)
    with pytest.raises(ValueError, match="variable count mismatch"):
        identity_mismatch(f, h, a, 1, 1)


def test_verify_identity_gcd_guard():
    f = HoloMap(2, [HoloPoly.variable(2, 0)])
    h = solve_h(f, 1, 1)
    with pytest.raises(ValueError):
        verify_identity(f, h, 2, 2, 2)


def test_tensor_power_rank_extremes():
    for p in (1, 2, 3):
        f = extremal_power_lower(p)
        for t in (1, 2, 3):
            assert tensor_power_rank(f, t) == t * p
    for n in (1, 2, 3):
        f = HoloMap.variables(n)
        for t in (1, 2):
            want = sum(comb(n + k - 1, k) for k in range(1, t + 1))
            assert tensor_power_rank(f, t) == want


def test_tensor_power_rank_falls_back_to_the_exact_rank_below_the_bound():
    # the modular rank of the products falls short of their exact rank, so of
    # min(products, monomials) too: it certifies nothing and the exact rank is returned
    x0, x1 = HoloPoly.variable(2, 0), HoloPoly.variable(2, 1)
    w, w2 = HoloPoly.variable(1, 0), HoloPoly.monomial(1, (2,))
    zero_mod_p = GaussianRational(-_ROOT, 1)  # i -> r sends it to 0
    for f, t, rank in (
        (HoloMap(2, [x0, _PRIME * x1]), 1, 2),
        (HoloMap(2, [x0, _PRIME * x1]), 2, 5),  # as many monomials as products
        (HoloMap(2, [x0, zero_mod_p * x1]), 2, 5),
        (HoloMap(1, [w, _PRIME * w2]), 2, 4),  # fewer monomials than products
    ):
        products = [
            reduce(mul, combo) for k in range(1, t + 1) for combo in combinations_with_replacement(f.components, k)
        ]
        assert _rank_mod_p([poly.cells for poly in products]) < rank
        assert tensor_power_rank(f, t) == rank, (f, t)


def test_minimality_falls_back_to_the_exact_rank_below_the_component_count():
    # more distinct monomials than components, so the components' rank decides
    x0, x1, x2 = (HoloPoly.variable(3, i) for i in range(3))
    zero_mod_p = GaussianRational(-_ROOT, 1)
    s = x0 + x1 + x2
    for f in (HoloMap(3, [s, x0 + x1 + (1 + _PRIME) * x2]), HoloMap(3, [zero_mod_p * s])):
        assert _rank_mod_p([poly.cells for poly in f.components]) < len(f) == reduce_minimal(f)[1]
        _check_minimal(f)
        h = solve_h(f, 1, 1)
        assert verify_identity(f, h, 1, 1, 1)
        assert len(h) == inertia(drop_constant(_left_side(f, 1, 1))).rank
    for dependent in (HoloMap(3, [s, _PRIME * s]), HoloMap(3, [s, GaussianRational(0, 1) * s])):
        with pytest.raises(NotMinimalError):
            solve_h(dependent, 1, 1)


def test_tensor_power_rank_matches_block_rank():
    rng = random.Random(2004)
    for _ in range(5):
        n = rng.choice((1, 2))
        f = random_map(rng, n, rng.randint(1, 2), 2, 3)
        t = rng.randint(1, 3)
        power = one_plus_norm(f) ** t
        block = drop_constant(power)
        assert tensor_power_rank(f, t) == inertia(block).rank


def test_divide_by_norm_round_trip():
    rng = random.Random(2005)
    for _ in range(10):
        n = rng.choice((2, 3))
        deg = rng.randint(1, 2)
        f = HoloMap(
            n, [rand_poly(rng, n, homogeneous=deg) for _ in range(rng.randint(1, 2))]
        )
        r = norm_form(f)
        s = norm_form(HoloMap.variables(n)) * r
        assert divide_by_norm(s) == r


def test_divide_by_norm_indefinite_quotient():
    # divisibility does not require positivity of the quotient
    r = HermitianForm.from_entries(
        2, {(mono(1, 0), mono(1, 0)): 1, (mono(0, 1), mono(0, 1)): -1}
    )
    s = norm_form(HoloMap.variables(2)) * r
    assert divide_by_norm(s) == r


def test_divide_by_norm_failures():
    not_divisible = HermitianForm.from_entries(2, {(mono(2, 0), mono(2, 0)): 1})
    assert divide_by_norm(not_divisible) is None
    const = HermitianForm.constant(2, 1)
    assert divide_by_norm(const) is None
    zero = HermitianForm.zero(2)
    assert divide_by_norm(zero) == zero
    mixed = HermitianForm.from_entries(
        1, {(mono(0), mono(0)): 1, (mono(1), mono(1)): 1}
    )
    with pytest.raises(ValueError):
        divide_by_norm(mixed)


def test_divide_by_norm_off_diagonal():
    rng = random.Random(2006)
    for _ in range(5):
        f = HoloMap(2, [rand_poly(rng, 2, homogeneous=1), rand_poly(rng, 2, homogeneous=2)])
        # mixed-degree components are not bihomogeneous; use each separately
        for comp in f.components:
            r = norm_form(HoloMap(2, [comp]))
            s = norm_form(HoloMap.variables(2)) * r
            assert divide_by_norm(s) == r


def test_divide_by_norm_high_powers_in_six_variables():
    # not divisible; the Ostrowski box holds every degree-9 exponent here
    powers = [mono(*(10 * (k == i) for k in range(6))) for i in range(6)]
    s = HermitianForm.from_entries(6, {(m, m): 1 for m in powers})
    start = time.perf_counter()
    assert divide_by_norm(s) is None
    assert time.perf_counter() - start < 1


def test_divide_by_norm_refuses_an_off_diagonal_block():
    # ||z||^2 |z0|^2 = |z0^2|^2 + |z0 z1|^2 divides in the diagonal block; the
    # added pair z0^2 conj(z1^2) + conj pair is x0^2 in its block, not a multiple
    # of x0 + x1
    x2, xy, y2 = mono(2, 0), mono(1, 1), mono(0, 2)
    diagonal = {(x2, x2): 1, (xy, xy): 1}
    assert divide_by_norm(HermitianForm.from_entries(2, diagonal)) == HermitianForm.from_entries(
        2, {(mono(1, 0), mono(1, 0)): 1}
    )
    pair = {(x2, y2): GaussianRational(1, 2), (y2, x2): GaussianRational(1, -2)}
    assert divide_by_norm(HermitianForm.from_entries(2, {**diagonal, **pair})) is None


def test_r_lambda_values():
    r = r_lambda(Fraction(13, 2))
    assert r.coefficient(mono(2), mono(2)) == GaussianRational(Fraction(-1, 2))
    assert r.coefficient(mono(0), mono(0)) == GR_ONE
    assert r_lambda(6).coefficient(mono(2), mono(2)) == GaussianRational(0)
    assert r_lambda(6).size == 4  # the zero row is pruned
