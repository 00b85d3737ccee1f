import random
import time
from itertools import product
from math import comb

import pytest

from hermsos import (
    HoloMap,
    HoloPoly,
    check_affine_norm_product,
    check_gap_feasible,
    check_homogeneous_norm_product,
    check_min_embedding_dim,
    check_modification_rank,
    check_norm_product,
    check_power_rank,
    check_rational_modification_rank,
    extremal_lower,
    extremal_power_lower,
    gap_intervals,
    inertia,
    norm_form,
    prime_substitution,
    random_map,
    reduce_minimal,
    substitute_powers,
    verify_injective,
)
from hermsos.bounds import _PSI_13, _is_prime, _min_m_with_power_sum


def test_modification_rank_bands():
    rep = check_modification_rank(2, 1, 4)
    assert (rep.lower, rep.upper, rep.satisfied) == (4, 5, True)
    rep = check_modification_rank(2, 2, 9)
    assert (rep.lower, rep.upper, rep.satisfied) == (5, 8, False)
    # above the diagonal the lower bound is max(n(n+3)/2, d) with no ceiling
    rep = check_modification_rank(1, 3, 2)
    assert (rep.lower, rep.upper, rep.satisfied) == (3, None, False)
    rep = check_modification_rank(1, 3, 3)
    assert rep.satisfied
    rep = check_modification_rank(2, 7, 7)
    assert (rep.lower, rep.upper, rep.satisfied) == (7, None, True)
    assert rep.theorem == "thm1.1"
    assert rep.inputs == {"n": 2, "d": 7, "m": 7}
    with pytest.raises(ValueError):
        check_modification_rank(0, 1, 1)


def test_a_report_is_a_named_tuple_of_six_fields():
    rep = check_modification_rank(2, 1, 4)
    assert rep._fields == ("theorem", "inputs", "observed", "lower", "upper", "satisfied")
    assert rep == ("thm1.1", {"n": 2, "d": 1, "m": 4}, 4, 4, 5, True)
    with pytest.raises(AttributeError):
        rep.lower = 0


def test_gap_intervals_frozen_lists():
    assert gap_intervals(2) == [(0, 4)]
    assert gap_intervals(5) == [(0, 10), (11, 14)]
    assert gap_intervals(10) == [(0, 20), (21, 29), (32, 37), (43, 44)]


def test_gap_intervals_last_k():
    # gap k is nonempty exactly when n > k(k+3)/2
    for n in range(1, 40):
        gaps = gap_intervals(n)
        ks = [k for k in range(1, n + 2) if n > k * (k + 3) // 2]
        assert len(gaps) == 1 + len(ks)
        for k, (lo, hi) in zip(ks, gaps[1:]):
            assert lo == n * (k + 1) + k
            assert hi == n * (k + 2) - k * (k + 1) // 2


def test_gap_feasible_matches_intervals():
    for n in (2, 3, 5, 10):
        gaps = gap_intervals(n)
        for m in range(1, 130):
            in_gap = any(lo < m < hi for lo, hi in gaps)
            assert check_gap_feasible(n, m).satisfied == (not in_gap), (n, m)


def test_gap_feasible_reports():
    rep = check_gap_feasible(5, 12)
    assert not rep.satisfied
    assert rep.inputs["d"] == 2
    assert (rep.lower, rep.upper) == (14, 17)
    rep = check_gap_feasible(5, 11)
    assert rep.satisfied
    rep = check_gap_feasible(10, 121)
    assert rep.satisfied
    assert rep.upper is None


def test_rational_modification_rank():
    rep = check_rational_modification_rank(4, 1, 8, 1, 1)
    assert (rep.lower, rep.upper, rep.satisfied) == (8, 9, True)
    rep = check_rational_modification_rank(4, 1, 2, 1, 1)
    assert not rep.satisfied
    # square-root case from the one-variable family: reduces to m >= 1
    rep = check_rational_modification_rank(1, 6, 5, 2, 2)
    assert rep.lower == 1
    assert rep.upper is None
    assert rep.satisfied
    # a = 2 shrinks the interval: the binomial sum grows quadratically
    rep = check_rational_modification_rank(4, 1, 3, 2, 1)
    assert rep.lower == 3  # 3 + C(4,2) = 9 >= 8
    assert rep.upper == 4  # floor(9 / 2)
    assert rep.satisfied


def test_min_m_with_power_sum_matches_linear_search():
    for a in range(1, 5):
        m = 1
        for target in range(0, 2001):
            while sum(comb(m + k - 1, k) for k in range(1, a + 1)) < target:
                m += 1
            assert _min_m_with_power_sum(a, target) == m, (a, target)


def test_rational_modification_rank_huge_target_is_fast():
    start = time.perf_counter()
    rep = check_rational_modification_rank(100000, 200000, 1, 1, 2)
    assert time.perf_counter() - start < 0.5
    assert rep.lower == 100000 * 100003 // 2
    assert not rep.satisfied


def test_homogeneous_norm_product():
    rep = check_homogeneous_norm_product(2, 1, 3)
    assert (rep.lower, rep.upper, rep.satisfied) == (3, 3, True)
    rep = check_homogeneous_norm_product(2, 4, 5)
    assert (rep.lower, rep.upper, rep.satisfied) == (6, None, False)


def test_norm_product():
    rep = check_norm_product(2, 1, 2)
    assert (rep.lower, rep.upper, rep.satisfied) == (2, 2, True)
    rep = check_norm_product(2, 3, 3)
    assert (rep.lower, rep.upper, rep.satisfied) == (3, None, True)
    rep = check_norm_product(3, 4, 5)
    assert (rep.lower, rep.upper) == (6, None)
    assert not rep.satisfied


def test_affine_norm_product():
    rep = check_affine_norm_product(2, 1, 4)
    assert (rep.lower, rep.upper, rep.satisfied) == (4, 5, True)
    rep = check_affine_norm_product(2, 2, 5)
    assert (rep.lower, rep.upper, rep.satisfied) == (5, 8, True)
    rep = check_affine_norm_product(2, 3, 4)
    assert (rep.lower, rep.upper, rep.satisfied) == (5, None, False)


def test_power_rank_bounds():
    rep = check_power_rank(2, 2, 4)
    assert (rep.lower, rep.upper, rep.satisfied) == (4, 5, True)
    rep = check_power_rank(2, 2, 6)
    assert not rep.satisfied
    rep = check_power_rank(3, 3, 9)
    assert rep.lower == 9
    assert rep.upper == 3 + comb(4, 2) + comb(5, 3)


def test_power_rank_upper_is_the_binomial_sum():
    for p in range(1, 9):
        for t in range(1, 9):
            want = sum(comb(p + k - 1, k) for k in range(1, t + 1))
            assert check_power_rank(p, t, 1).upper == want, (p, t)


def test_power_rank_huge_power_is_fast():
    start = time.perf_counter()
    rep = check_power_rank(3000, 3000, 5)
    assert time.perf_counter() - start < 0.5
    assert rep.lower == 3000 * 3000
    assert not rep.satisfied


def test_min_embedding_dim():
    for n in (1, 2, 5, 12):
        for m in range(1, 30):
            rep = check_min_embedding_dim(n, m)
            assert rep.lower == n
            assert rep.satisfied == (m >= n)


def test_prime_substitution_known():
    assert prime_substitution(2, 2) == (3, 5)
    assert prime_substitution(3, 2) == (11, 39, 65)
    assert prime_substitution(1, 5) == (1,)


def test_prime_substitution_injective():
    for n in range(1, 5):
        for t in range(1, 5):
            exps = prime_substitution(n, t)
            assert verify_injective(exps, n, t)
    assert not verify_injective((1, 1), 2, 1)


def test_verify_injective_matches_a_brute_force_over_all_vectors():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(400):
        n, t = rng.randint(1, 3), rng.randint(1, 4)
        exps = tuple(rng.randint(0, 9) for _ in range(n))
        vectors = [v for v in product(range(t + 1), repeat=n) if sum(v) <= t]
        images = {sum(a * e for a, e in zip(exps, v)) for v in vectors}
        verdict = len(images) == len(vectors)
        assert verify_injective(exps, n, t) == verdict, (exps, t)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_prime_agrees_with_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    assert [q for q in range(-3, limit) if _is_prime(q)] == [q for q in range(limit) if sieve[q]]


def strong_probable_prime(q, base):
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, q)
    return x == 1 or any(pow(x, 2**r, q) == q - 1 for r in range(s))


@pytest.mark.parametrize("q, bases", [
    (3215031751, (2, 3, 5, 7)),  # 151 * 751 * 28351
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),  # 149491 * 747451 * 34233211
])
def test_is_prime_rejects_strong_pseudoprimes(q, bases):
    assert all(strong_probable_prime(q, base) for base in bases)
    assert not _is_prime(q)


def test_is_prime_refuses_at_the_bound_it_is_proved_below():
    # Mersenne primes, and a product of two of them just below the bound
    assert _is_prime(2**61 - 1) and _is_prime(2**19 - 1)
    assert not _is_prime((2**61 - 1) * (2**19 - 1))
    with pytest.raises(ValueError, match=str(_PSI_13)):
        _is_prime(_PSI_13)


def test_prime_substitution_past_trial_division_is_fast_and_injective():
    for n, t in [(7, 2), (8, 1)]:
        start = time.perf_counter()
        exps = prime_substitution(n, t)
        assert time.perf_counter() - start < 1.0
        assert verify_injective(exps, n, t)
    with pytest.raises(ValueError, match=str(_PSI_13)):
        prime_substitution(8, 2)


def test_substitute_powers_preserves_rank():
    rng = random.Random(3001)
    for _ in range(10):
        n = rng.choice((2, 3))
        t = rng.randint(1, 3)
        f = random_map(rng, n, rng.randint(1, 3), t, 3)
        exps = prime_substitution(n, t)
        collapsed = substitute_powers(f, exps)
        assert reduce_minimal(collapsed)[1] == reduce_minimal(f)[1]
        assert inertia(norm_form(collapsed)).rank == len(f)


def test_extremal_witnesses():
    f = extremal_lower(3, 2)
    assert len(f) == 2
    assert f.n == 3
    assert f.components[0] == HoloPoly.variable(3, 0)
    with pytest.raises(ValueError):
        extremal_lower(2, 3)
    g = extremal_power_lower(3)
    assert g.n == 1
    assert [c.degree for c in g.components] == [1, 2, 3]


def test_report_shape():
    rep = check_power_rank(1, 1, 1)
    assert rep.theorem == "prop2.5"
    assert rep.observed == 1
    assert isinstance(rep.inputs, dict)
