"""Rank bounds and gap phenomena for squared-norm identities.

Each checker takes the integer data of one scenario, evaluates the proven
lower/upper bounds for the minimal number of squares, and reports whether
the observed count sits inside the admissible range.  Reports carry the
bounds themselves so callers can display or post-process them; ``satisfied``
is the single boolean verdict.

The checkers are pure integer arithmetic and deliberately independent of
the polynomial machinery, so they can serve as oracles for it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations_with_replacement
from math import comb


class BoundReport(namedtuple("BoundReport", "theorem inputs observed lower upper satisfied")):
    """Outcome of one bound check.

    ``theorem`` is a short stable token naming the bound, usable as a
    dispatch key, and ``inputs`` the integer arguments by name (a dict).
    ``lower``/``upper`` bracket the admissible range for the ``observed``
    count (``upper`` is None when no upper bound is asserted); ``satisfied``
    is whether observed lies inside.
    """

    __slots__ = ()


def _report(theorem: str, inputs: dict[str, int], observed: int, lower: int, upper: int | None) -> BoundReport:
    ok = observed >= lower and (upper is None or observed <= upper)
    return BoundReport(theorem, dict(inputs), observed, lower, upper, ok)


def _require_positive(**values: int):
    # polyalg._is_int_at_least's rule, kept here since bounds imports nothing from the package
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive integer")


def _band(n: int, d: int) -> tuple[int, int]:
    """The thm1.1 band of counts for degree d in n variables:
    (n(d+1) - d(d-1)/2, n(d+1) + d)."""
    return n * (d + 1) - d * (d - 1) // 2, n * (d + 1) + d


def check_modification_rank(n: int, d: int, m: int) -> BoundReport:
    """Admissible component counts m for degree-d modifications in n variables.

    For d <= n:  n(d+1) - d(d-1)/2 <= m <= n(d+1) + d.
    For d > n:   m >= max(n(n+3)/2, d), with no upper bound.
    """
    _require_positive(n=n, d=d, m=m)
    inputs = {"n": n, "d": d, "m": m}
    if d <= n:
        return _report("thm1.1", inputs, m, *_band(n, d))
    lower = max(n * (n + 3) // 2, d)
    return _report("thm1.1", inputs, m, lower, None)


def gap_intervals(n: int) -> list[tuple[int, int]]:
    """Open intervals of impossible component counts, in increasing order.

    The first gap is (0, 2n).  For k >= 1 the band for degree k+1 starts
    above the band for degree k, leaving the open gap
    (n(k+1) + k, n(k+2) - (k+1)k/2); gaps are emitted while nonempty as
    real intervals and close up once the bands begin to overlap.
    """
    _require_positive(n=n)
    out = [(0, 2 * n)]
    k = 1
    while True:
        lo = _band(n, k)[1]
        hi = _band(n, k + 1)[0]
        if lo >= hi:
            break
        out.append((lo, hi))
        k += 1
    return out


def check_gap_feasible(n: int, m: int) -> BoundReport:
    """Whether a count m avoids every gap for n variables.

    Locates the smallest degree band whose upper end reaches m and reports
    that band; m is infeasible exactly when it falls strictly inside an
    open gap.  Past the last bounded band (degree above n) every count at
    least n(n+3)/2 is admissible by taking the degree equal to the count.
    """
    _require_positive(n=n, m=m)
    d = 1
    while d <= n and _band(n, d)[1] < m:
        d += 1
    if d <= n:
        return _report("cor1.3", {"n": n, "m": m, "d": d}, m, *_band(n, d))
    return _report("cor1.3", {"n": n, "m": m, "d": m}, m, n * (n + 3) // 2, None)


def _power_sum(m: int, a: int) -> int:
    """sum_{k=1..a} C(m+k-1, k), the count of monomials in m variables of degree 1..a.

    By the hockey-stick identity the sum from k = 0 is C(m+a, a).
    """
    return comb(m + a, a) - 1


def _min_m_with_power_sum(a: int, target: int) -> int:
    """Least m >= 1 with _power_sum(m, a) >= target; the sum is increasing in m.

    Doubling finds an m that reaches the target, then bisection finds the
    least one, in O(log m) evaluations of the sum.
    """
    hi = 1
    while _power_sum(hi, a) < target:
        hi *= 2
    lo = hi // 2 + 1  # every m <= hi // 2 falls short
    return lo + bisect_left(range(lo, hi + 1), target, key=lambda m: _power_sum(m, a))


def check_rational_modification_rank(n: int, e: int, m: int, a: int, b: int) -> BoundReport:
    """Admissible m for rational identities with denominator exponent a.

    Case e <= n with b == 1: requires
        n(e+1) - e(e-1)/2 <= sum_{k=1..a} C(m+k-1, k)   and   a*m <= n(e+1) + e,
    which converts to an integer interval on m.  Otherwise only the lower
    bound n(n+3)/2 <= sum_{k=1..a} C(m+k-1, k) applies.
    """
    _require_positive(n=n, e=e, m=m, a=a, b=b)
    inputs = {"n": n, "e": e, "m": m, "a": a, "b": b}
    if e <= n and b == 1:
        lower_target, upper_target = _band(n, e)
        return _report("thm1.4", inputs, m, _min_m_with_power_sum(a, lower_target), upper_target // a)
    lower = _min_m_with_power_sum(a, n * (n + 3) // 2)
    return _report("thm1.4", inputs, m, lower, None)


def check_homogeneous_norm_product(n: int, p: int, r: int) -> BoundReport:
    """Admissible ranks r for ||z||^2 * ||f||^2 with homogeneous f of rank p.

    For p <= n + 1:  (n+1)p - p(p-1)/2 <= r <= p(n+1).
    For p > n + 1:   r >= (n+1)(n+2)/2.
    """
    _require_positive(n=n, p=p, r=r)
    inputs = {"n": n, "p": p, "r": r}
    if p <= n + 1:
        lower = (n + 1) * p - p * (p - 1) // 2
        return _report("prop2.1", inputs, r, lower, p * (n + 1))
    return _report("prop2.1", inputs, r, (n + 1) * (n + 2) // 2, None)


def check_norm_product(n: int, p: int, r: int) -> BoundReport:
    """Admissible ranks r for ||z||^2 * ||f||^2, f arbitrary of rank p.

    For p <= n:  np - p(p-1)/2 <= r <= pn.
    For p > n:   r >= max(n(n+1)/2, p).
    """
    _require_positive(n=n, p=p, r=r)
    inputs = {"n": n, "p": p, "r": r}
    if p <= n:
        lower = n * p - p * (p - 1) // 2
        return _report("thm2.2", inputs, r, lower, p * n)
    return _report("thm2.2", inputs, r, max(n * (n + 1) // 2, p), None)


def check_affine_norm_product(n: int, p: int, r: int) -> BoundReport:
    """Admissible ranks r for (1 + ||z||^2) * ||f||^2, f of rank p.

    For p <= n:  n(p+1) - p(p-1)/2 <= r <= n(p+1) + p.
    For p > n:   r >= n(n+3)/2.

    Here the product runs over the affine variables, so the count includes
    the constant-direction squares.
    """
    _require_positive(n=n, p=p, r=r)
    inputs = {"n": n, "p": p, "r": r}
    if p <= n:
        lower = n * (p + 1) - p * (p - 1) // 2
        return _report("thm2.4", inputs, r, lower, n * (p + 1) + p)
    return _report("thm2.4", inputs, r, n * (n + 3) // 2, None)


def check_power_rank(p: int, t: int, r: int) -> BoundReport:
    """Admissible ranks r for (1 + ||f||^2)^t - 1, f of rank p.

    t*p <= r <= sum_{k=1..t} C(p+k-1, k); both ends are attained.
    """
    _require_positive(p=p, t=t, r=r)
    inputs = {"p": p, "t": t, "r": r}
    return _report("prop2.5", inputs, r, t * p, _power_sum(p, t))


def check_min_embedding_dim(n: int, m: int) -> BoundReport:
    """Least target dimension m admitting any degree > 1 identity from n variables.

    Requires n(n+3)/2 <= m + m(m+1)/2, which simplifies to m >= n.
    """
    _require_positive(n=n, m=m)
    inputs = {"n": n, "m": m}
    assert (n * (n + 3) // 2 <= m + m * (m + 1) // 2) == (m >= n)
    return _report("rem1.6", inputs, m, n, None)


# ---------------------------------------------------------------------------
# injective power substitutions
# ---------------------------------------------------------------------------


# the first 13 primes, and the least strong pseudoprime to all of them as
# bases (Sorenson and Webster, Math. Comp. 2017)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _is_prime(q: int) -> bool:
    """Whether q is prime: trial division by the 13 bases, then a strong
    probable-prime test to each.  A proof below psi_13; ValueError from it on."""
    if q >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13}")
    if q < 2 or any(q % base == 0 for base in _SPRP_BASES):
        return q in _SPRP_BASES
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _SPRP_BASES:
        x = pow(base, d, q)
        if x != 1 and all(pow(x, 2**r, q) != q - 1 for r in range(s)):
            return False
    return True


def _next_prime(q: int) -> int:
    while not _is_prime(q):
        q += 1
    return q


def prime_substitution(n: int, t: int) -> tuple[int, ...]:
    """Exponents (a_1, ..., a_n) making z_i -> w^{a_i} injective below degree t.

    Built by repeatedly collapsing the last two variable groups: each round
    picks the two smallest distinct primes exceeding the current degree
    budget T, scales the earlier group by the smaller and the later by the
    larger, and multiplies T by the larger.  Distinct exponent vectors of
    total degree <= t then map to distinct powers of w.  A prime at or past
    psi_13 (see ``_is_prime``) raises ValueError: n = 8 with t > 1 does.
    """
    _require_positive(n=n, t=t)
    groups: list[list[int]] = [[1] for _ in range(n)]
    budget = t
    while len(groups) > 1:
        left, right = groups[-2], groups[-1]
        q1 = _next_prime(budget + 1)
        q2 = _next_prime(q1 + 1)
        merged = [a * q1 for a in left] + [a * q2 for a in right]
        groups = groups[:-2] + [merged]
        budget *= q2
    return tuple(groups[0])


def verify_injective(exponents: tuple[int, ...], n: int, t: int) -> bool:
    """Brute-force check that alpha -> sum a_i alpha_i is injective on degree <= t.

    A vector alpha of degree k is a multiset of k indices, and its image is
    the sum of their exponents, so each multiset is drawn once and one set
    of images finds any collision.
    """
    _require_positive(n=n, t=t)
    # polyalg._check_exponent_vector's rule and messages
    if not isinstance(exponents, Sequence):
        raise TypeError("substitution exponents must be a sequence")
    if len(exponents) != n:
        raise ValueError("exponent vector has wrong length")
    if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in exponents):
        raise ValueError("substitution exponents must be non-negative integers")
    seen = set()
    for deg in range(t + 1):
        for multiset in combinations_with_replacement(exponents, deg):
            image = sum(multiset)
            if image in seen:
                return False
            seen.add(image)
    return True
