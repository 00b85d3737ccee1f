"""Acceptance suite: one test per shipped guarantee.

Each test is independent except for the shared exhaustive monomial-map
corpus, which two tests consume (its sandwich bounds and its gap
exclusion).  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import drop_constant, rand_poly
from hermsos import (
    HoloMap,
    HoloPoly,
    Monomial,
    affine_split,
    check_affine_norm_product,
    check_gap_feasible,
    check_min_embedding_dim,
    check_norm_product,
    check_power_rank,
    check_rational_modification_rank,
    divide_by_norm,
    extract_sos,
    extremal_lower,
    extremal_power_lower,
    gap_intervals,
    grams_equal,
    inertia,
    monomials_up_to_degree,
    norm_form,
    one_plus_norm,
    prime_substitution,
    r_lambda,
    random_map,
    reduce_minimal,
    solve_h,
    substitute_powers,
    tensor_power_rank,
    verify_identity,
    verify_injective,
)

LAMBDAS = [Fraction(6), Fraction(13, 2), Fraction(7), Fraction(15, 2), Fraction(10), Fraction(21, 2)]


def diag_of(form, n_entries):
    return [form.coefficient(Monomial((k,)), Monomial((k,))) for k in range(n_entries)]


@pytest.fixture(scope="module")
def monomial_corpus():
    """Every monomial map with n <= 3, p <= n, distinct components of degree 1..3."""
    results = []
    for n in (1, 2, 3):
        mons = [m for m in monomials_up_to_degree(n, 3) if m.degree >= 1]
        for p in range(1, n + 1):
            for combo in itertools.combinations(mons, p):
                f = HoloMap(n, [HoloPoly(n, {m: 1}) for m in combo])
                results.append((n, p, len(solve_h(f, 1, 1))))
    return results


def test_criterion_1_example_family_tables():
    for lam in LAMBDAS:
        r = r_lambda(lam)
        want_r = [Fraction(1), Fraction(4), Fraction(6) - lam, Fraction(4), Fraction(1)]
        assert [v.re for v in diag_of(r, 5)] == want_r

        p_form = one_plus_norm(HoloMap.variables(1)) * r
        want_p = [Fraction(1), Fraction(5), Fraction(10) - lam, Fraction(10) - lam,
                  Fraction(5), Fraction(1)]
        assert [v.re for v in diag_of(p_form, 6)] == want_p

        s_form = r * r
        conv = [sum(want_r[k] * want_r[i - k] for k in range(5) if 0 <= i - k < 5)
                for i in range(9)]
        assert [v.re for v in diag_of(s_form, 9)] == conv
        assert conv[4] == (Fraction(6) - lam) ** 2 + 34

        assert (inertia(r).neg == 0) == (lam <= 6)
        assert (inertia(p_form).neg == 0) == (lam <= 10)
        assert (inertia(s_form).neg == 0) == (lam <= 7)
        # each splits exactly while its block is PSD, with the squares the
        # reference route factors off that block
        for form, last in ((p_form, 10), (s_form, 7)):
            h = affine_split(form)
            assert (h is not None) == (lam <= last)
            if h is not None:
                assert h == extract_sos(drop_constant(form))


def test_criterion_2_example_family_identity():
    lam = Fraction(7)
    p_form = one_plus_norm(HoloMap.variables(1)) * r_lambda(lam)
    s_form = r_lambda(lam) * r_lambda(lam)
    m = len(affine_split(p_form))
    d = len(affine_split(s_form))
    assert m == 5
    assert d == 6
    f = extract_sos(drop_constant(p_form))
    h = extract_sos(drop_constant(s_form))
    assert len(f) == 5
    assert len(h) == 6
    assert verify_identity(h, f, 2, 2, 1)
    assert m < d


def test_criterion_3_modification_sandwich_exhaustive(monomial_corpus):
    seen = {}
    for n, p, m in monomial_corpus:
        assert check_affine_norm_product(n, p, m).satisfied, (n, p, m)
        low, high = seen.get((n, p), (m, m))
        seen[(n, p)] = (min(low, m), max(high, m))
    for (n, p), (low, high) in seen.items():
        lower_bound = n * (p + 1) - p * (p - 1) // 2
        upper_bound = n * (p + 1) + p
        assert low == lower_bound, (n, p, low)
        assert high == upper_bound, (n, p, high)
        coords = extremal_lower(n, p)
        assert len(solve_h(coords, 1, 1)) == lower_bound


def test_criterion_4_gap_exclusion(monomial_corpus):
    assert gap_intervals(2) == [(0, 4)]
    assert gap_intervals(5) == [(0, 10), (11, 14)]
    assert gap_intervals(10) == [(0, 20), (21, 29), (32, 37), (43, 44)]
    for n in (2, 5, 10):
        gaps = gap_intervals(n)
        last_k = len(gaps) - 1
        assert n > last_k * (last_k + 3) // 2
        assert n <= (last_k + 1) * (last_k + 4) // 2

    cached_gaps = {n: gap_intervals(n) for n in (1, 2, 3)}
    for n, _, m in monomial_corpus:
        assert not any(lo < m < hi for lo, hi in cached_gaps[n]), (n, m)
        assert check_gap_feasible(n, m).satisfied

    rng = random.Random(20260819)
    for i in range(200):
        n = 2 + (i % 2)
        f = random_map(rng, n, rng.randint(1, 3), 2, 3)
        m = len(solve_h(f, 1, 1))
        assert not any(lo < m < hi for lo, hi in cached_gaps[n]), (n, m)
        assert check_gap_feasible(n, m).satisfied


def test_criterion_5_power_rank_sandwich():
    for p in range(1, 5):
        f = extremal_power_lower(p)
        for t in range(1, 5):
            assert tensor_power_rank(f, t) == t * p, (p, t)
    for n in range(1, 5):
        for p in range(1, n + 1):
            f = HoloMap(n, [HoloPoly.variable(n, i) for i in range(p)])
            for t in range(1, 5):
                want = sum(comb(p + k - 1, k) for k in range(1, t + 1))
                assert tensor_power_rank(f, t) == want, (n, p, t)
    rng = random.Random(50505)
    for _ in range(20):
        n = rng.choice((1, 2))
        p = rng.randint(1, 2)
        t = rng.randint(1, 3)
        f = random_map(rng, n, p, 2, 3)
        r = tensor_power_rank(f, t)
        assert check_power_rank(p, t, r).satisfied, (n, p, t, r)


def test_criterion_6_injective_power_substitution():
    for n in range(1, 5):
        for t in range(1, 5):
            assert verify_injective(prime_substitution(n, t), n, t), (n, t)
    rng = random.Random(60606)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        t = rng.randint(1, 3)
        f = random_map(rng, n, rng.randint(1, 3), t, 3)
        collapsed = substitute_powers(f, prime_substitution(n, t))
        assert reduce_minimal(collapsed)[1] == len(f), (n, t)


def test_criterion_7_norm_divisibility():
    rng = random.Random(70707)
    for i in range(50):
        n = 1 + (i % 3)
        deg = rng.randint(1, 2)
        comps = [rand_poly(rng, n, homogeneous=deg, height=3)
                 for _ in range(rng.randint(1, 2))]
        r = norm_form(HoloMap(n, comps))
        s = norm_form(HoloMap.variables(n)) * r
        assert divide_by_norm(s) == r
        h = extract_sos(s)
        assert len(h) >= n
        assert check_norm_product(n, inertia(r).rank, len(h)).satisfied


def test_criterion_8_rank_oracles_agree():
    rng = random.Random(80808)
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        p = rng.randint(1, 3)
        f = HoloMap(n, [rand_poly(rng, n, degree_max=2, height=3) for _ in range(p)])
        form = norm_form(f)
        _, dim = reduce_minimal(f)
        sig = inertia(form)
        assert sig.neg == 0
        assert sig.pos == dim
        recomposed = extract_sos(form)
        assert norm_form(recomposed) == form
        assert len(recomposed) == dim


def test_criterion_9_arithmetic_predicates():
    for n in range(1, 51):
        values = [n * (d + 1) - d * (d - 1) // 2 for d in range(1, n + 1)]
        assert all(a < b for a, b in zip(values, values[1:])), n
    for n in range(1, 201):
        for m in range(1, 201):
            rep = check_min_embedding_dim(n, m)
            assert rep.satisfied == (n * (n + 3) // 2 <= m + m * (m + 1) // 2)
            assert rep.satisfied == (m >= n)
    for n in range(1, 13):
        for c in range(1, n + 1):
            threshold = n * (c + 1) - c * (c - 1) // 2
            for a in range(1, threshold):
                rep = check_rational_modification_rank(n, c, 1, a, 1)
                assert not rep.satisfied, (n, c, a)
