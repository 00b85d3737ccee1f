"""Seeded inputs and independent oracles for the benchmark workloads.

Nothing here imports hermsos.  Documents come from this file's own sampler
and expected answers from counting, Sylvester's law of inertia, exact
convolution, or ranks modulo a large prime, so a change to the program can
change neither what the benchmark feeds it nor what the benchmark accepts.
The same seed gives byte-identical documents.

A job is one or more CLI calls, timed together.  Arguments written ``@name``
are files in the run's work directory.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

PRIME = (1 << 61) - 1  # ranks of integer matrices are taken modulo this prime

Exp = Tuple[int, ...]
Poly = Dict[Exp, int]  # integer coefficients keyed by exponent vector


@dataclass
class Job:
    kind: str
    calls: List[List[str]]
    files: Dict[str, str]
    check: Callable[["Job", List[Tuple[Optional[int], str]]], bool]
    expect: dict = field(default_factory=dict)
    argv: List[List[str]] = field(default_factory=list)  # calls with work-dir paths


# ---------------------------------------------------------------------------
# polynomials, documents and modular rank
# ---------------------------------------------------------------------------


def exponents(n: int, d: int) -> List[Exp]:
    """Exponent vectors in n variables of total degree exactly d."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in exponents(n - 1, d - a)]


def exponents_between(n: int, lo: int, hi: int) -> List[Exp]:
    return [e for d in range(lo, hi + 1) for e in exponents(n, d)]


def shift(e: Exp, f: Exp) -> Exp:
    return tuple(a + b for a, b in zip(e, f))


def unit(n: int, i: int) -> Exp:
    return tuple(int(j == i) for j in range(n))


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e, a in p.items():
        for f, b in q.items():
            k = shift(e, f)
            out[k] = out.get(k, 0) + a * b
    return {k: v for k, v in out.items() if v}


def rank_mod_p(polys: List[Poly]) -> int:
    """Rank of the coefficient vectors, modulo PRIME.

    Never above the rank over Q, and equal to it unless PRIME divides a
    nonzero minor, so a full modular rank certifies independence.
    """
    rows = [{e: c % PRIME for e, c in p.items() if c % PRIME} for p in polys]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot_row = rows.pop()
        col, val = next(iter(pivot_row.items()))
        inv = pow(val, PRIME - 2, PRIME)
        rank += 1
        rest = []
        for r in rows:
            c = r.get(col)
            if c:
                factor = c * inv % PRIME
                for e, v in pivot_row.items():
                    nv = (r.get(e, 0) - factor * v) % PRIME
                    if nv:
                        r[e] = nv
                    else:
                        r.pop(e, None)
            if r:
                rest.append(r)
        rows = rest
    return rank


def map_document(n: int, comps: List[Poly]) -> str:
    doc = {
        "n": n,
        "components": [
            [{"exp": list(e), "re": c} for e, c in sorted(p.items(), reverse=True)]
            for p in comps
        ],
    }
    return json.dumps(doc) + "\n"


def form_document(n: int, basis: List[Exp], gram: List[List[Tuple[int, int]]]) -> str:
    doc = {
        "n": n,
        "basis": [list(e) for e in basis],
        "gram": [[{"re": re, "im": im} for re, im in row] for row in gram],
    }
    return json.dumps(doc) + "\n"


def nonzero(rng: random.Random, height: int) -> int:
    value = rng.randint(1, height)
    return value if rng.random() < 0.5 else -value


def gaussian(rng: random.Random, height: int) -> Tuple[int, int]:
    return rng.randint(-height, height), rng.randint(-height, height)


def gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def gconj(a):
    return a[0], -a[1]


def invertible(rng: random.Random, size: int, height: int) -> List[List[Tuple[int, int]]]:
    """A random Gaussian-integer matrix L*U with unit triangular factors, so det = 1."""
    lower = [[(1, 0) if i == j else gaussian(rng, height) if j < i else (0, 0)
              for j in range(size)] for i in range(size)]
    upper = [[(1, 0) if i == j else gaussian(rng, height) if j > i else (0, 0)
              for j in range(size)] for i in range(size)]
    return [[_gsum(gmul(lower[i][k], upper[k][j]) for k in range(size))
             for j in range(size)] for i in range(size)]


def _gsum(values):
    re = im = 0
    for a, b in values:
        re += a
        im += b
    return re, im


# ---------------------------------------------------------------------------
# output parsing shared by the oracles
# ---------------------------------------------------------------------------

_COEFF = re.compile(r"(?<![z^0-9/])(\d+)(?:/(\d+))?")


def rational_bits(text: str) -> int:
    """Largest numerator or denominator bit-length among the rationals in text.

    Variable indices (``z0``) and exponents (``^2``) are not rationals.
    """
    best = 0
    for num, den in _COEFF.findall(text):
        best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


def printed_bits(job: Job, outputs) -> int:
    """Bits of the exact results a job printed: the h of solve-h, the quotient of divide.

    Of a quotient only the gram entries count, not the basis exponents or n.
    """
    best = 0
    for argv, (_, out) in zip(job.calls, outputs):
        if argv[0] == "solve-h":
            for line in out.splitlines():
                if line.startswith("component "):
                    best = max(best, rational_bits(line.split(": ", 1)[1]))
        elif argv[0] == "divide":
            for value in (printed_quotient(out) or {}).values():
                for q in value:
                    best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


def printed_quotient(out: str):
    """The nonzero gram cells of the form ``divide`` printed, keyed by basis pair.

    None when the output is not ``divisible: true`` and a form document.
    """
    head, _, body = out.partition("\n")
    if head != "divisible: true":
        return None
    try:
        doc = json.loads(body)
        basis = [tuple(e) for e in doc["basis"]]
        cells = {}
        for i, row in enumerate(doc["gram"]):
            for j, cell in enumerate(row):
                value = (Fraction(cell["re"]), Fraction(cell["im"]))
                if value != (0, 0):
                    cells[(basis[i], basis[j])] = value
    except (ValueError, KeyError, TypeError, IndexError):
        return None
    return cells


def _solve_h_ok(code, out, m: int, b: int) -> bool:
    if code != 0:
        return False
    lines = out.splitlines()
    if not lines or lines[0] != f"m: {m}":
        return False
    if sum(line.startswith("component ") for line in lines) != m:
        return False
    # the thm2.4 report only covers b = 1; at b = 2 it is not graded
    return b != 1 or "satisfied: true" in lines


# ---------------------------------------------------------------------------
# corpus: every small monomial map, solve-h with b = c = 1
# ---------------------------------------------------------------------------


def monomial_maps() -> List[Tuple[int, Tuple[Exp, ...]]]:
    """Monomial maps with n <= 3, p <= n and distinct components of degree 1..3."""
    out = []
    for n in (1, 2, 3):
        mons = exponents_between(n, 1, 3)
        for p in range(1, n + 1):
            out.extend((n, combo) for combo in itertools.combinations(mons, p))
    return out


def _check_corpus(job: Job, outputs) -> bool:
    code, out = outputs[0]
    return _solve_h_ok(code, out, job.expect["m"], 1)


def corpus(seed: int) -> List[Job]:
    maps = monomial_maps()
    random.Random(seed).shuffle(maps)
    jobs = []
    for i, (n, combo) in enumerate(maps):
        zs = [unit(n, j) for j in range(n)]
        squares = set(zs) | set(combo) | {shift(z, f) for z in zs for f in combo}
        name = f"c{i}.json"
        jobs.append(Job(
            kind="solve-h",
            calls=[["solve-h", "--input", "@" + name]],
            files={name: map_document(n, [{e: 1} for e in combo])},
            check=_check_corpus,
            expect={"m": len(squares)},
        ))
    return jobs


# ---------------------------------------------------------------------------
# roundtrip: dense random maps, solve-h then verify
# ---------------------------------------------------------------------------

# (n, p, deg, b) ladder points and one 20-job block of them.  A fills 16
# slots, so job_p50_ms falls inside its times; B (3 slots) and the slowest
# point C (1 slot) fill the top 20%, so job_p90_ms falls inside B's times.
LADDER = {"A": (3, 3, 2, 1), "B": (3, 3, 2, 2), "C": (4, 3, 2, 1)}
ROUNDTRIP_BLOCK = "AAABAAAAABAACAAABAAA"
ROUNDTRIP_BLOCKS = 8
ROUNDTRIP_HEIGHT = 3


def dense_map(rng: random.Random, n: int, p: int, deg: int, height: int) -> List[Poly]:
    """p components, each with a nonzero integer coefficient on every monomial
    of degree 1..deg; redrawn until the components are independent."""
    mons = exponents_between(n, 1, deg)
    while True:
        comps = [{e: nonzero(rng, height) for e in mons} for _ in range(p)]
        if rank_mod_p(comps) == p:
            return comps


def modification_rank(n: int, comps: List[Poly], b: int) -> int:
    """Rank of (1+||z||^2)^b (1+||f||^2) - 1: the span of z^a and z^a f_k, |a| <= b.

    The multinomial weights of (1+||z||^2)^b are positive, so they do not
    change the span; the constant z^0 is the 1 that h leaves out.
    """
    alphas = exponents_between(n, 0, b)
    polys = [{a: 1} for a in alphas if sum(a)]
    polys += [{shift(a, e): c for e, c in f.items()} for a in alphas for f in comps]
    return rank_mod_p(polys)


def _check_roundtrip(job: Job, outputs) -> bool:
    (code, out), (vcode, vout) = outputs
    if "m" not in job.expect:
        job.expect["m"] = modification_rank(job.expect["n"], job.expect["f"], job.expect["b"])
    return _solve_h_ok(code, out, job.expect["m"], job.expect["b"]) and (
        vcode == 0 and vout == "identity holds\n"
    )


def roundtrip(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, point in enumerate(ROUNDTRIP_BLOCK * ROUNDTRIP_BLOCKS):
        n, p, deg, b = LADDER[point]
        comps = dense_map(rng, n, p, deg, ROUNDTRIP_HEIGHT)
        f, h = f"r{i}.json", f"h{i}.json"
        jobs.append(Job(
            kind="roundtrip-" + point,
            calls=[
                ["solve-h", "--input", "@" + f, "--b", str(b), "--output", "@" + h],
                ["verify", "@" + f, "@" + h, "--a", "1", "--b", str(b), "--c", "1"],
            ],
            files={f: map_document(n, comps)},
            check=_check_roundtrip,
            expect={"n": n, "f": comps, "b": b},
        ))
    return jobs


# ---------------------------------------------------------------------------
# forms: rank, divide, tensor-rank and verify on non-PSD, rectangular and
# non-minimal inputs
# ---------------------------------------------------------------------------

RANK_SIZE = 10
ZERO_DIAG_HALF = 5
DIVIDE_N, DIVIDE_D = 3, 3
TENSOR_P = 3
VERIFY_N, VERIFY_P, VERIFY_DEG = 2, 2, 2


def _basis(rng: random.Random, n: int, size: int) -> List[Exp]:
    return rng.sample(exponents_between(n, 0, 3), size)


def _congruent(p_mat, diag):
    """P^H D P for a Gaussian-integer P and an integer diagonal D."""
    size = len(p_mat)
    return [[_gsum(gmul(gconj(p_mat[k][i]), (diag[k] * p_mat[k][j][0], diag[k] * p_mat[k][j][1]))
                   for k in range(size)) for j in range(size)] for i in range(size)]


def _rank_lines(pos: int, neg: int) -> str:
    return (f"rank: {pos + neg}\npositive: {pos}\nnegative: {neg}\n"
            f"sos: {'true' if neg == 0 else 'false'}\n")


def _check_rank(job: Job, outputs) -> bool:
    code, out = outputs[0]
    return code == 0 and out == _rank_lines(job.expect["pos"], job.expect["neg"])


def rank_job(rng: random.Random, name: str) -> Job:
    """P^H D P with P invertible has the signature of D (Sylvester's law)."""
    pos = rng.randint(2, RANK_SIZE - 2)
    neg = rng.randint(1, RANK_SIZE - pos)
    diag = [1] * pos + [-1] * neg + [0] * (RANK_SIZE - pos - neg)
    rng.shuffle(diag)
    gram = _congruent(invertible(rng, RANK_SIZE, 2), diag)
    return Job("rank", [["rank", "--input", "@" + name]],
               {name: form_document(3, _basis(rng, 3, RANK_SIZE), gram)},
               _check_rank, {"pos": pos, "neg": neg})


def zero_diagonal_rank_job(rng: random.Random, name: str) -> Job:
    """[[0, B], [B^H, 0]] with B invertible has signature (k, k) and a zero diagonal."""
    k = ZERO_DIAG_HALF
    block = invertible(rng, k, 2)
    zero = (0, 0)
    gram = [[zero] * k + block[i] for i in range(k)]
    gram += [[gconj(block[j][i]) for j in range(k)] + [zero] * k for i in range(k)]
    return Job("rank-zero-diagonal", [["rank", "--input", "@" + name]],
               {name: form_document(3, _basis(rng, 3, 2 * k), gram)},
               _check_rank, {"pos": k, "neg": k})


def _check_divide(job: Job, outputs) -> bool:
    code, out = outputs[0]
    want = job.expect["quotient"]
    if code != 0:
        return False
    if want is None:
        return out == "divisible: false\n"
    return printed_quotient(out) == want


def divide_jobs(rng: random.Random, names) -> List[Job]:
    """||z||^2 * R for a random Hermitian R, and a copy with one diagonal entry
    raised by 1.  A single entry c*|z^a|^2 is never a multiple of ||z||^2 when
    n >= 2, so the copy is not divisible."""
    n, d = DIVIDE_N, DIVIDE_D
    lower = exponents(n, d - 1)
    r: Dict[Tuple[Exp, Exp], Tuple[int, int]] = {}
    for i, a in enumerate(lower):
        r[(a, a)] = (nonzero(rng, 4), 0)
        for b in lower[i + 1:]:
            if rng.random() < 0.6:
                v = gaussian(rng, 4)
                if v != (0, 0):
                    r[(a, b)], r[(b, a)] = v, gconj(v)
    s: Dict[Tuple[Exp, Exp], Tuple[int, int]] = {}
    for (a, b), v in r.items():
        for j in range(n):
            key = (shift(a, unit(n, j)), shift(b, unit(n, j)))
            s[key] = _gsum([s.get(key, (0, 0)), v])
    upper = exponents(n, d)
    gram = [[s.get((a, b), (0, 0)) for b in upper] for a in upper]
    k = rng.randrange(len(upper))
    bumped = [row[:] for row in gram]
    bumped[k][k] = (bumped[k][k][0] + 1, bumped[k][k][1])
    want = {key: (Fraction(v[0]), Fraction(v[1])) for key, v in r.items()}
    good, bad = names
    return [
        Job("divide", [["divide", "--input", "@" + good]],
            {good: form_document(n, upper, gram)}, _check_divide, {"quotient": want}),
        Job("divide-perturbed", [["divide", "--input", "@" + bad]],
            {bad: form_document(n, upper, bumped)}, _check_divide, {"quotient": None}),
    ]


def _check_tensor(job: Job, outputs) -> bool:
    code, out = outputs[0]
    p, t = TENSOR_P, job.expect["t"]
    upper = sum(comb(p + k - 1, k) for k in range(1, t + 1))
    want = f"rank: {job.expect['rank']}\nlower: {t * p}\nupper: {upper}\nsatisfied: true\n"
    return code == 0 and out == want


def tensor_jobs(rng: random.Random, t: int, names) -> List[Job]:
    """Maps with known rank of (1+||f||^2)^t - 1.

    Independent linear forms in p variables reach the upper end at t = 3:
    their products of k factors span every monomial of degree k.  Scaled
    powers (c_1 w, ..., c_p w^p) of one variable reach the lower end t*p:
    products of at most t of them span exactly w^1 .. w^{tp}.
    """
    p = TENSOR_P
    jobs = []
    for name in names[:-1]:
        linear = dense_map(rng, p, p, 1, 2)
        jobs.append(Job("tensor-upper-t3", [["tensor-rank", "--input", "@" + name, "--t", "3"]],
                        {name: map_document(p, linear)}, _check_tensor,
                        {"t": 3, "rank": sum(comb(p + k - 1, k) for k in range(1, 4))}))
    powers = [{(k,): nonzero(rng, 3)} for k in range(1, p + 1)]
    low = names[-1]
    jobs.append(Job(f"tensor-lower-t{t}", [["tensor-rank", "--input", "@" + low, "--t", str(t)]],
                    {low: map_document(1, powers)}, _check_tensor, {"t": t, "rank": t * p}))
    return jobs


def _check_verify(job: Job, outputs) -> bool:
    code, out = outputs[0]
    if job.expect["holds"]:
        return code == 0 and out == "identity holds\n"
    return code == 1 and out.startswith("identity fails; mismatched entries:\n")


def verify_jobs(rng: random.Random, names) -> List[Job]:
    """h = (z, f, z (x) f) satisfies (1+||z||^2)(1+||f||^2) = 1+||h||^2 with a
    non-minimal h.  Raising one coefficient of h by 1 changes the |z^e|^2
    coefficient of ||h||^2 by 1 + 2c for an integer c, never 0."""
    n = VERIFY_N
    f = dense_map(rng, n, VERIFY_P, VERIFY_DEG, 3)
    zs = [{unit(n, i): 1} for i in range(n)]
    h = zs + f + [poly_mul(z, fk) for z in zs for fk in f]
    bad = [dict(c) for c in h]
    k = rng.randrange(len(bad))
    e = rng.choice(sorted(bad[k]))
    bad[k][e] += 1
    if not bad[k][e]:
        del bad[k][e]
    fname, good_h, bad_h = names
    argv = lambda hname: ["verify", "@" + fname, "@" + hname, "--a", "1", "--b", "1", "--c", "1"]
    fdoc = map_document(n, f)
    return [
        Job("verify", [argv(good_h)], {fname: fdoc, good_h: map_document(n, h)},
            _check_verify, {"holds": True}),
        Job("verify-perturbed", [argv(bad_h)], {fname: fdoc, bad_h: map_document(n, bad)},
            _check_verify, {"holds": False}),
    ]


# One block is 9 jobs.  The two tensor-upper-t3 jobs are the slowest type and
# fill 22% of the slots, so job_p90_ms falls inside their times; the other
# seven types overlap in time and job_p50_ms falls among them.
FORMS_BLOCKS = 50


def forms(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs: List[Job] = []
    for i in range(FORMS_BLOCKS):
        tag = lambda s: f"{s}{i}.json"
        jobs += [rank_job(rng, tag("rk")), zero_diagonal_rank_job(rng, tag("rz"))]
        jobs += divide_jobs(rng, (tag("dv"), tag("dx")))
        jobs += verify_jobs(rng, (tag("vf"), tag("vh"), tag("vx")))
        jobs += tensor_jobs(rng, 2 + i % 2, (tag("tu"), tag("tv"), tag("tl")))
    return jobs


WORKLOADS = {"corpus": corpus, "roundtrip": roundtrip, "forms": forms}
