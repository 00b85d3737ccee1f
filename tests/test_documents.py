import json
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mono, rand_plain_map
from hermsos import (
    GR_ZERO,
    DocumentError,
    EnsembleConfig,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    grams_equal,
    monomials_up_to_degree,
    norm_form,
    parse_form_document,
    parse_map_document,
    random_map,
    reduce_minimal,
    serialize_form_document,
    serialize_map_document,
    solve_h,
)


def test_map_document_round_trip_plain():
    rng = random.Random(4001)
    for _ in range(8):
        n = rng.choice((1, 2, 3))
        f = rand_plain_map(rng, n, rng.randint(1, 3))
        doc = serialize_map_document(f)
        assert parse_map_document(doc) == f
        # documents survive JSON text round trips byte-exactly
        assert parse_map_document(json.loads(json.dumps(doc))) == f


def test_map_document_round_trip_scaled():
    f = HoloMap(2, [HoloPoly.variable(2, 0)])
    h = solve_h(f, 1, 1)
    doc = serialize_map_document(h)
    assert any("scale" in comp for comp in doc["components"])
    back = parse_map_document(doc)
    assert back.weights is not None
    assert grams_equal(back, h)
    assert back.components == h.components and back.weights == h.weights


def test_map_document_rational_strings():
    doc = {
        "n": 1,
        "components": [[{"exp": [2], "re": "3/4", "im": "-1/2"}]],
    }
    f = parse_map_document(doc)
    assert f.components[0].terms[mono(2)] == GaussianRational(
        Fraction(3, 4), Fraction(-1, 2)
    )


def test_map_document_rejections():
    with pytest.raises(DocumentError):
        parse_map_document([])
    with pytest.raises(DocumentError):
        parse_map_document({"n": 0, "components": []})
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "components": [[{"exp": [1], "re": 0.5}]]})
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "components": [[{"exp": [1, 0], "re": 1}]]})
    with pytest.raises(DocumentError):
        parse_map_document(
            {"n": 1, "components": [[{"exp": [1], "re": 1}, {"exp": [1], "re": 2}]]}
        )
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "components": [[{"exp": [1], "re": "1/0"}]]})
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "components": [[{"exp": [1], "re": 1, "x": 2}]]})
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "components": [{"scale": 0, "terms": []}]})
    with pytest.raises(DocumentError):
        parse_map_document({"n": 1, "stuff": []})


@pytest.mark.parametrize("doc,message", [
    ({"n": 1, "components": [], "bogus": 1}, "unknown document keys ['bogus']"),
    ({"n": 1, "components": [{"terms": [], "weight": 1}]}, "unknown component keys ['weight']"),
    ({"n": 1, "components": [[{"exp": [1], "re": 1, "x": 0}]]}, "unknown term keys ['x']"),
    ({"n": 2, "components": [[{"exp": [1], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"exp": [True], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"exp": [-1], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"exp": [1], "re": 1}, {"exp": [1], "im": 1}]]}, "duplicate exponent [1] in one component"),
    ({"n": 1, "basis": [[0]], "gram": [[1]], "gram2": 0}, "unknown document keys ['gram2']"),
    ({"n": 1, "basis": [[0]], "gram": [[{"re": 1, "re2": 0}]]}, "unknown scalar keys ['re2']"),
    ({"n": 1, "basis": [[0, 1]], "gram": [[1]]}, "basis entries must be lists of n non-negative integers"),
    ({"n": 1, "basis": [(0,)], "gram": [[1]]}, "basis entries must be lists of n non-negative integers"),
    # (1.0,) == (1,) as a key of the monomial table, so the type is checked before it is read
    ({"n": 1, "components": [[{"exp": [1], "re": 1}, {"exp": [1.0], "re": 2}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"exp": [False], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"exp": "1", "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[{"re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 1, "components": [[[1]]]}, "terms must be objects"),
    ({"n": 1, "components": ["z0"]}, "a component must be a list of terms"),
    # a bad exponent after a good one
    ({"n": 2, "components": [[{"exp": [1, True], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 2, "components": [[{"exp": [0, 1.0], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 2, "components": [[{"exp": [2, -1], "re": 1}]]}, "term exp must be a list of n non-negative integers"),
    ({"n": 2, "basis": [[0, 0], [1, True]], "gram": [[1, 0], [0, 1]]}, "basis entries must be lists of n non-negative integers"),
    # the keys are checked before the exponents, and a repeated exponent before the literals
    ({"n": 1, "components": [[{"exp": [1.0], "re": 1, "x": 0}]]}, "unknown term keys ['x']"),
    ({"n": 1, "components": [[{"exp": [1], "re": 1}, {"exp": [1], "re": "x"}]]}, "duplicate exponent [1] in one component"),
    # a gram cell: a bare value is its real part, an object has "re" and "im"
    ({"n": 1, "basis": [[0]], "gram": [[True]]}, "booleans are not rationals"),
    ({"n": 1, "basis": [[0]], "gram": [[0.5]]}, 'floats are not accepted; use strings like "3/4"'),
    ({"n": 1, "basis": [[0]], "gram": [[[1]]]}, "bad rational value of type list"),
    ({"n": 1, "basis": [[0]], "gram": [[{"re": 1, "zz": 2}]]}, "unknown scalar keys ['zz']"),
    ({"n": 1, "basis": [[0]], "gram": [[{"im": 0.5}]]}, 'floats are not accepted; use strings like "3/4"'),
    # a bad literal before a repeated basis monomial before a wrong shape before a non-Hermitian pair
    ({"n": 1, "basis": [[0]], "gram": [[1, "1/0"]]}, "bad rational literal '1/0'"),
    ({"n": 1, "basis": [[0], [0]], "gram": [[1, "x"], [0, 1]]}, "bad rational literal 'x'"),
    ({"n": 1, "basis": [[0], [0]], "gram": [[1]]}, "basis monomials must be distinct"),
    ({"n": 1, "basis": [[0]], "gram": [[1], [1]]}, "gram matrix shape does not match the basis"),
    ({"n": 1, "basis": [[0], [1]], "gram": [[1, "1/2"], ["1/3", 1]]}, "gram matrix is not Hermitian"),
    ({"n": 1, "basis": [[0], [1]], "gram": [[1, "1/2"], ["0/7", 1]]}, "gram matrix is not Hermitian"),
    ({"n": 1, "basis": [[0]], "gram": [[{"re": 1, "im": "1/2"}]]}, "gram matrix is not Hermitian"),
])
def test_rejection_messages(doc, message):
    parse = parse_form_document if "basis" in doc else parse_map_document
    with pytest.raises(DocumentError) as info:
        parse(doc)
    assert str(info.value) == message


def test_empty_weighted_map_document():
    doc = serialize_map_document(HoloMap(2, [], []))
    assert doc == {"n": 2, "components": [], "scaled": True}
    assert parse_map_document(doc) == HoloMap(2, [], [])
    # every other document is written as before
    assert serialize_map_document(HoloMap(2, [])) == {"n": 2, "components": []}
    f = HoloMap(1, [HoloPoly.variable(1, 0)], [Fraction(1, 2)])
    assert "scaled" not in serialize_map_document(f)
    plain = {"n": 1, "components": [[{"exp": [1], "re": 1}]]}
    assert parse_map_document({**plain, "scaled": True}).weights is not None
    for value in (False, 1, "true", None):
        with pytest.raises(DocumentError):
            parse_map_document({**plain, "scaled": value})


def test_decimal_exponents():
    term = {"exp": [1], "re": "2.5e-3", "im": "-1E4300"}
    f = parse_map_document({"n": 1, "components": [[term]]})
    assert f.components[0].terms[mono(1)] == GaussianRational(Fraction(1, 400), -(10**4300))
    for literal in ("1e4301", "1e-4301", "1E3000000", "-2.5e-3000000", "1e+10000000"):
        start = time.perf_counter()
        with pytest.raises(DocumentError, match="bad rational literal"):
            parse_map_document({"n": 1, "components": [[{"exp": [1], "re": literal}]]})
        assert time.perf_counter() - start < 1


def test_form_document_round_trip():
    rng = random.Random(4002)
    for _ in range(6):
        n = rng.choice((1, 2))
        a = norm_form(rand_plain_map(rng, n, 2))
        doc = serialize_form_document(a)
        assert parse_form_document(doc) == a


def test_form_document_bare_rational_entries():
    doc = {
        "n": 1,
        "basis": [[1], [2]],
        "gram": [[2, {"im": "1/2"}], [{"im": "-1/2"}, "3/4"]],
    }
    a = parse_form_document(doc)
    entries = dict(((ma.exponents, mb.exponents), v) for ma, mb, v in a.entries())
    assert entries[(1,), (1,)] == GaussianRational(2, 0)
    assert entries[(2,), (2,)] == GaussianRational(Fraction(3, 4), 0)
    assert entries[(1,), (2,)] == GaussianRational(0, Fraction(1, 2))
    with pytest.raises(DocumentError):
        parse_form_document({"n": 1, "basis": [[0]], "gram": [[0.5]]})


# a gram entry's parts: small fractions, decimals and zero
form_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9)),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([2, 3, 4, 7, 12])),
    st.builds(Fraction, st.integers(-999, 999), st.sampled_from([10, 100, 1000])),
)


def form_literal(value: Fraction):
    """The ways a form document may write value: "p/q" times a common factor,
    a decimal when the denominator divides 1000, and for an integer also a
    JSON integer or "p"; zero also as "0/7"."""
    options = [st.sampled_from([1, 2, 6]).map(lambda k: f"{value.numerator * k}/{value.denominator * k}")]
    if 1000 % value.denominator == 0:
        digits = f"{abs(value.numerator) * (1000 // value.denominator):04d}"
        options.append(st.just(f"{'-' if value < 0 else ''}{digits[:-3]}.{digits[-3:]}"))
    if value.denominator == 1:
        options += [st.just(value.numerator), st.just(str(value.numerator))]
    if not value:
        options.append(st.just("0/7"))
    return st.one_of(options)


@st.composite
def form_cells(draw, value: GaussianRational):
    """A gram cell for value: sometimes bare when it is real, else an object
    whose "re" or "im" may be left out when that part is zero."""
    if not value.im and draw(st.booleans()):
        return draw(form_literal(value.re))
    cell = {}
    for key, part in (("re", value.re), ("im", value.im)):
        if part or draw(st.booleans()):
            cell[key] = draw(form_literal(part))
    return cell


@st.composite
def form_documents(draw):
    """A form document and the gram of the same entries as ``Fraction``s and
    ``GaussianRational``s, over a basis in drawn order."""
    n = draw(st.integers(1, 2))
    basis = draw(st.lists(st.sampled_from(monomials_up_to_degree(n, 2)), unique=True, max_size=5))
    size = len(basis)
    gram = [[GR_ZERO] * size for _ in range(size)]
    for i in range(size):
        gram[i][i] = GaussianRational(draw(form_parts))
        for j in range(i + 1, size):
            gram[i][j] = GaussianRational(draw(form_parts), draw(form_parts))
            gram[j][i] = gram[i][j].conjugate()
    doc = {
        "n": n,
        "basis": [list(mon.exponents) for mon in basis],
        "gram": [[draw(form_cells(value)) for value in row] for row in gram],
    }
    # a real entry as a Fraction, as HermitianForm also takes it
    return doc, HermitianForm(n, basis, [[v.re if not v.im else v for v in row] for row in gram])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(form_documents())
def test_form_document_reads_as_the_constructor_reads_its_entries(case):
    doc, form = case
    assert parse_form_document(doc) == form
    assert parse_form_document(json.loads(json.dumps(doc))) == form


def test_form_document_rejections():
    with pytest.raises(DocumentError):
        parse_form_document({"n": 1, "basis": [[0]], "gram": [[{"re": 1}], [{"re": 1}]]})
    with pytest.raises(DocumentError):
        # not Hermitian
        parse_form_document(
            {
                "n": 1,
                "basis": [[0], [1]],
                "gram": [
                    [{"re": 1}, {"re": 0, "im": 1}],
                    [{"re": 0, "im": 1}, {"re": 1}],
                ],
            }
        )
    with pytest.raises(DocumentError):
        parse_form_document({"n": 1, "basis": [[0, 0]], "gram": [[{"re": 1}]]})
    with pytest.raises(DocumentError):
        parse_form_document({"n": 1, "basis": [[0]], "gram": [[{"re": True}]]})


def test_ensemble_config_validation():
    cfg = EnsembleConfig(n=2, d_max=2, degree_max=2, count=0, seed=1)
    assert cfg.coefficient_height == 5
    with pytest.raises(ValueError):
        EnsembleConfig(n=0, d_max=1, degree_max=1, count=1, seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n=1, d_max=1, degree_max=1, count=-1, seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n=1, d_max=1, degree_max=1, count=1, seed=2**64)
    with pytest.raises(ValueError):
        EnsembleConfig(n=1, d_max=1, degree_max=1, count=1, seed=-1)


def test_ensemble_config_is_a_named_tuple_checked_however_it_is_built():
    cfg = EnsembleConfig(2, 2, 2, 0, 1)
    assert cfg == (2, 2, 2, 0, 1, 5)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert cfg._replace(count=3).count == 3
    with pytest.raises(ValueError, match="n must be a positive integer"):
        cfg._replace(n=0)
    with pytest.raises(ValueError, match="seed must fit"):
        EnsembleConfig._make([1, 1, 1, 1, -1])
    with pytest.raises(AttributeError):
        cfg.n = 3


def test_random_map_minimal_and_reproducible():
    for seed in (1, 7, 99):
        f1 = random_map(random.Random(seed), 2, 2, 2, 4)
        f2 = random_map(random.Random(seed), 2, 2, 2, 4)
        assert f1 == f2
        assert f1.vanishes_at_zero
        assert reduce_minimal(f1)[1] == 2
    g = random_map(random.Random(5), 3, 3, 2, 3)
    assert reduce_minimal(g)[1] == 3


def test_random_map_refuses_more_components_than_monomials():
    # degree 1..2 in 2 variables has 5 monomials
    assert reduce_minimal(random_map(random.Random(1), 2, 5, 2))[1] == 5
    with pytest.raises(ValueError, match="6 independent components need 6 monomials; degree 1..2 has 5"):
        random_map(random.Random(1), 2, 6, 2)
    with pytest.raises(ValueError):
        random_map(random.Random(1), 1, 2, 1)


# Seeded reader oracles: random documents against the public constructors, and
# mutated documents against the message of the first check that fails.


def literal(rng, value: Fraction):
    """A JSON literal for value: a bare int when it is one, or a string
    "p", "-p" or "p/q", the last with a common factor sometimes left in."""
    if value.denominator == 1 and rng.random() < 0.5:
        return value.numerator
    if value.denominator == 1 and rng.random() < 0.5:
        return str(value.numerator)
    k = rng.choice((1, 1, 3))
    return f"{value.numerator * k}/{value.denominator * k}"


def random_value(rng, ints: bool) -> GaussianRational:
    """Zero, a real or a complex value, with integer parts when ints."""

    def part():
        return Fraction(rng.randint(-5, 5), 1 if ints else rng.choice((1, 2, 3, 7)))

    kind = rng.randrange(3)
    return GaussianRational(0) if kind == 0 else GaussianRational(part(), part() if kind == 2 else 0)


def gram_cell(rng, value: GaussianRational, ints: bool):
    """value as a gram cell: bare or {"re"} when it is real, else {"re", "im"}
    or {"im"}; only bare ints and {"re": int, "im": int} objects when ints."""
    if not value.im and rng.random() < 0.5:
        return value.re.numerator if ints else literal(rng, value.re)
    write = (lambda q: q.numerator) if ints else (lambda q: literal(rng, q))
    cell = {"re": write(value.re), "im": write(value.im)}
    if not ints and not value.im and rng.random() < 0.5:
        del cell["im"]
    elif not ints and not value.re and rng.random() < 0.5:
        del cell["re"]
    return cell


def random_form_document(rng):
    """A form document over a basis in random order with some all-zero rows,
    and the form the dense constructor builds from the same values."""
    n = rng.randint(1, 3)
    pool = monomials_up_to_degree(n, 2)
    size = rng.randint(2, min(6, len(pool)))
    basis = rng.sample(pool, size)
    zero_rows = set(rng.sample(range(size), rng.randint(0, size - 1)))
    ints = rng.random() < 0.5
    gram = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if i not in zero_rows and j not in zero_rows:
                value = random_value(rng, ints)
                gram[i][j] = GaussianRational(value.re) if i == j else value
                gram[j][i] = gram[i][j].conjugate()
    doc = {
        "n": n,
        "basis": [list(mon.exponents) for mon in basis],
        "gram": [[gram_cell(rng, value, ints) for value in row] for row in gram],
    }
    return doc, HermitianForm(n, basis, gram)


def random_map_document(rng):
    """A map document whose components are written with int literals, string
    literals or both, some of them scaled, and the map the public
    constructors build from the same values."""
    n = rng.randint(1, 3)
    pool = [mon for mon in monomials_up_to_degree(n, 3) if mon.degree]
    scaled = rng.random() < 0.4
    comps, polys, weights = [], [], []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("int", "string", "mixed"))
        terms, coeffs = [], {}
        for mon in rng.sample(pool, rng.randint(1, min(6, len(pool)))):
            value = random_value(rng, kind == "int")
            term = {"exp": list(mon.exponents)}
            for key, part in (("re", value.re), ("im", value.im)):
                if part or rng.random() < 0.5:
                    strings = kind == "string" or (kind == "mixed" and rng.random() < 0.5)
                    term[key] = literal(rng, part) if strings else part.numerator
                    if not strings and part.denominator != 1:
                        term[key] = f"{part.numerator}/{part.denominator}"
            terms.append(term)
            coeffs[mon] = value
        polys.append(HoloPoly(n, coeffs))
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        if scaled and rng.random() < 0.7:
            comps.append({"scale": literal(rng, weight), "terms": terms})
            weights.append(weight)
        else:
            comps.append(terms)
            weights.append(Fraction(1))
    weighted = scaled and any(isinstance(comp, dict) for comp in comps)
    return {"n": n, "components": comps}, HoloMap(n, polys, weights if weighted else None)


@pytest.mark.parametrize("seed", range(4))
def test_random_form_documents_parse_as_the_dense_constructor_reads_them(seed):
    rng = random.Random(5100 + seed)
    for _ in range(60):
        doc, form = random_form_document(rng)
        assert parse_form_document(doc) == form
        assert parse_form_document(json.loads(json.dumps(doc))) == form


@pytest.mark.parametrize("seed", range(4))
def test_random_map_documents_parse_as_the_constructors_build_them(seed):
    rng = random.Random(5200 + seed)
    for _ in range(60):
        doc, f = random_map_document(rng)
        parsed = parse_map_document(doc)
        assert parsed == f
        assert parsed.weights == f.weights


# the form reader's checks past the document's structure, in the order it makes them
FORM_CHECKS = ("literal", "repeated", "shape", "hermitian")
FORM_MESSAGES = {
    "literal": "bad rational literal 'x/1'",
    "repeated": "basis monomials must be distinct",
    "shape": "gram matrix shape does not match the basis",
    "hermitian": "gram matrix is not Hermitian",
}


def mutate_form(rng, doc, mutation: str):
    """doc with one fault: a bad literal in a cell, a repeated basis entry, a
    row one cell short or long, a broken Hermitian pair, or a bad literal in
    a cell appended past the end of a row; the name of the check it fails."""
    doc = json.loads(json.dumps(doc))
    basis, gram = doc["basis"], doc["gram"]
    size = len(basis)
    i, j = rng.randrange(size), rng.randrange(size)
    if mutation == "literal":
        gram[i][rng.randrange(len(gram[i]))] = rng.choice(("x/1", {"re": "x/1"}, {"re": 1, "im": "x/1"}))
        return doc, "literal"
    if mutation == "repeated":
        k = rng.choice([k for k in range(size) if k != i])
        basis[k] = list(basis[i])
        return doc, "repeated"
    if mutation == "shape":
        if rng.random() < 0.5:
            gram[i].pop()
        else:
            gram[i].append(rng.choice((0, 1, {"re": "1/2"})))
        return doc, "shape"
    if mutation == "hermitian":
        # a nonzero imaginary part on the diagonal, or one cell of an off-diagonal pair moved
        j = i if rng.random() < 0.3 else rng.choice([k for k in range(size) if k != i])
        gram[i][j] = {"re": "1/3", "im": 5} if i == j else {"re": 17, "im": "2/3"}
        return doc, "hermitian"
    gram[i].append("x/1")  # past the end of a too-long row, the literal is reported
    return doc, "literal"


@pytest.mark.parametrize("mutation", [*FORM_CHECKS, "literal-past-the-end"])
def test_a_mutated_form_document_fails_its_check(mutation):
    rng = random.Random(5300 + len(mutation))
    for _ in range(40):
        doc, _ = random_form_document(rng)
        doc, check = mutate_form(rng, doc, mutation)
        with pytest.raises(DocumentError) as info:
            parse_form_document(doc)
        assert str(info.value) == FORM_MESSAGES[check]


def test_a_form_document_with_several_faults_fails_the_first_check():
    rng = random.Random(5400)
    # applied in this order, so no mutation overwrites or drops the cell of an earlier one
    mutations = ["hermitian", "repeated", "shape", "literal", "literal-past-the-end"]
    for _ in range(120):
        doc, _ = random_form_document(rng)
        checks = []
        for mutation in sorted(rng.sample(mutations, rng.randint(2, 3)), key=mutations.index):
            doc, check = mutate_form(rng, doc, mutation)
            checks.append(check)
        first = min(checks, key=FORM_CHECKS.index)
        with pytest.raises(DocumentError) as info:
            parse_form_document(doc)
        assert str(info.value) == FORM_MESSAGES[first]


@pytest.mark.parametrize("mutation,message", [
    ("literal", "bad rational literal 'x/1'"),
    ("float", 'floats are not accepted; use strings like "3/4"'),
    ("repeated", None),
])
def test_a_mutated_map_document_fails_its_check(mutation, message):
    rng = random.Random(5500 + len(mutation))
    for _ in range(40):
        doc, _ = random_map_document(rng)
        comps = doc["components"]
        k = rng.randrange(len(comps))
        terms = comps[k]["terms"] if isinstance(comps[k], dict) else comps[k]
        t = rng.randrange(len(terms))
        if mutation == "repeated":
            if len(terms) < 2:
                continue
            t = max(t, 1)
            terms[t]["exp"] = list(terms[rng.randrange(t)]["exp"])
            message = f"duplicate exponent {terms[t]['exp']} in one component"
        else:
            terms[t][rng.choice(("re", "im"))] = "x/1" if mutation == "literal" else 0.5
        with pytest.raises(DocumentError) as info:
            parse_map_document(doc)
        assert str(info.value) == message
