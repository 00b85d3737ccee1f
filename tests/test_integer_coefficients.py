"""Polynomials stored as Gaussian-integer numerators over one denominator,
checked against the ``Fraction`` parse and ``GaussianRational`` printing.

``reference_parse_map_document`` and ``reference_format_poly`` in conftest
read every literal with ``Fraction`` and print every coefficient with
``str(GaussianRational)``.  Documents are drawn with denominators up to
10**6, complex and negative coefficients, and literals written with common
factors, so the integer parse, its reduction to lowest terms, the printing,
the serialization and the JSON writer all meet an independent answer.
Examples are derandomized, so every run checks the same inputs.
"""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_extract_sos,
    reference_format_poly,
    reference_fraction,
    reference_parse_map_document,
)
from hermsos import (
    HoloMap,
    HoloPoly,
    Monomial,
    extract_sos,
    grlex_key,
    monomials_up_to_degree,
    norm_form,
    parse_form_document,
    parse_map_document,
    reduce_minimal,
    serialize_map_document,
    solve_h,
)
from hermsos.cli import main
from hermsos.documents import serialize_map_json

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

MONOMIALS = {n: monomials_up_to_degree(n, 2) for n in (1, 2, 3)}

fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-3, 3)),
)
positive_fractions = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


def literal_of(value: Fraction):
    """The ways a document may write value: "p/q" times a common factor, and
    for an integer also a JSON integer or "p"."""
    factor = st.sampled_from([1, 2, 3, 7, 10**6])
    options = [factor.map(lambda k: f"{value.numerator * k}/{value.denominator * k}")]
    if value.denominator == 1:
        options += [st.just(value.numerator), st.just(str(value.numerator))]
    return st.one_of(options)


def written_terms(draw, values):
    """JSON terms for {Monomial: (re, im)}, each part written in a drawn way or left out when 0."""
    terms = []
    for mon, parts in values.items():
        term = {"exp": list(mon.exponents)}
        for key, value in zip(("re", "im"), parts):
            if value or draw(st.booleans()):
                term[key] = draw(literal_of(value))
        terms.append(term)
    return terms


@st.composite
def poly_values(draw, n):
    chosen = draw(st.lists(st.sampled_from(MONOMIALS[n]), unique=True, max_size=6))
    return {mon: (draw(fractions), draw(fractions)) for mon in chosen}


@st.composite
def map_documents(draw):
    """Plain and weighted map documents, sometimes with zero or no components."""
    n = draw(st.integers(1, 3))
    scaled = draw(st.booleans())
    doc = {"n": n, "components": []}
    for _ in range(draw(st.integers(0 if scaled else 1, 4))):
        terms = written_terms(draw, draw(poly_values(n)))
        if scaled and draw(st.integers(0, 3)):
            doc["components"].append({"scale": draw(literal_of(draw(positive_fractions))), "terms": terms})
        else:
            doc["components"].append(terms)
    if scaled and not any(isinstance(comp, dict) for comp in doc["components"]):
        doc["scaled"] = True
    return doc


def reference_serialized(n, scaled, pairs) -> dict:
    """``serialize_map_document`` of the reference parse."""

    def literal(value: Fraction):
        return value.numerator if value.denominator == 1 else str(value)

    components = []
    for weight, terms in pairs:
        written = [
            {"exp": list(mon.exponents), "re": literal(c.re), "im": literal(c.im)}
            for mon, c in sorted(terms.items(), key=lambda kv: grlex_key(kv[0]))
        ]
        components.append({"scale": literal(weight), "terms": written} if scaled else written)
    if scaled and not components:
        return {"n": n, "components": [], "scaled": True}
    return {"n": n, "components": components}


@PROPERTY
@given(map_documents())
def test_parse_print_and_serialize_match_the_reference(doc):
    f = parse_map_document(doc)
    scaled, pairs = reference_parse_map_document(doc)
    assert (f.weights is not None) == scaled
    got = list(f.weighted_components())
    assert len(got) == len(pairs)
    for (weight, poly), (ref_weight, terms) in zip(got, pairs):
        assert weight == ref_weight
        assert dict(poly.terms) == terms
        assert str(poly) == reference_format_poly(terms)
        assert poly == HoloPoly(f.n, terms)
    assert serialize_map_document(f) == reference_serialized(f.n, scaled, pairs)


@PROPERTY
@given(map_documents())
def test_map_json_writer_matches_json_dumps(doc):
    f = parse_map_document(doc)
    assert serialize_map_json(f) == json.dumps(serialize_map_document(f), indent=2) + "\n"


@pytest.mark.parametrize(
    "f",
    [
        HoloMap(2, [], []),
        HoloMap(3, []),
        HoloMap(1, [HoloPoly.zero(1), HoloPoly(1, {MONOMIALS[1][1]: Fraction(-5, 3)})]),
        solve_h(HoloMap(2, [HoloPoly(2, {MONOMIALS[2][1]: 1, MONOMIALS[2][4]: Fraction(-3, 4)})]), 2, 1),
    ],
    ids=["empty-scaled", "empty-plain", "zero-component", "solved-h"],
)
def test_map_json_writer_on_fixed_maps(f):
    assert serialize_map_json(f) == json.dumps(serialize_map_document(f), indent=2) + "\n"


def text_then_json(f):
    return [str(poly) for _, poly in f.weighted_components()], serialize_map_json(f)


def json_then_text(f):
    written = serialize_map_json(f)
    return [str(poly) for _, poly in f.weighted_components()], written


@PROPERTY
@given(map_documents())
def test_text_and_json_read_one_rendering_in_either_order(doc):
    """Each polynomial renders its coefficients once, for str and the JSON writer
    alike: either order gives the same bytes, and so do copies of a rendered map."""
    f = parse_map_document(doc)
    # f without its constant terms and its dependent components, so solve_h takes it
    const = Monomial((0,) * f.n)
    comps = [poly - HoloPoly.constant(f.n, poly.terms.get(const, 0)) for _, poly in f.weighted_components()]
    h = solve_h(reduce_minimal(HoloMap(f.n, comps))[0], 1, 1)
    # a fresh, unrendered map on each call
    for make in (lambda: parse_map_document(doc), lambda: copy.deepcopy(h)):
        want = text_then_json(make())
        assert json_then_text(make()) == want
        rendered = make()
        assert text_then_json(rendered) == want
        for _, poly in rendered.weighted_components():
            assert poly.term_texts() is poly.term_texts()
        for copied in (copy.deepcopy(rendered), pickle.loads(pickle.dumps(rendered))):
            assert copied == rendered
            assert text_then_json(copied) == want
        # a rendered polynomial equals an unrendered one of the same value
        assert make() == rendered


@st.composite
def poly_pairs(draw):
    """Two documents of polynomials in 2 variables: often the same values written
    with other common factors, otherwise with one coefficient drawn afresh."""
    values = draw(poly_values(2))
    other = dict(values)
    if draw(st.booleans()):
        other[draw(st.sampled_from(MONOMIALS[2]))] = (draw(fractions), draw(fractions))
    return [{"n": 2, "components": [written_terms(draw, v)]} for v in (values, other)]


@PROPERTY
@given(poly_pairs())
def test_equality_matches_reference_equality(docs):
    a, b = (parse_map_document(doc).components[0] for doc in docs)
    ref_a, ref_b = (reference_parse_map_document(doc)[1][0][1] for doc in docs)
    assert (a == b) == (ref_a == ref_b)
    assert (a == b) == (a - b).is_zero


@PROPERTY
@given(map_documents().map(parse_map_document))
def test_terms_view_of_built_polynomials_matches_the_reference(f):
    # the factor columns of extract_sos are built from integers at the pivot
    got, want = list(extract_sos(norm_form(f)).weighted_components()), reference_extract_sos(norm_form(f))
    assert len(got) == len(want)
    for (_, poly), (_, ref) in zip(got, want):
        assert dict(poly.terms) == dict(ref.terms)
        assert HoloPoly(poly.n, poly.terms) == poly


ACCEPTED = ["+3", "1.5", "1_000", " 1/2", "1e3", "-0/5", "2/4", "-7", "0012/0008", "2.5e-3"]


@pytest.mark.parametrize("literal", ACCEPTED)
def test_accepted_literals_read_as_fraction_reads_them(literal):
    doc = {"n": 1, "components": [[{"exp": [1], "re": literal, "im": literal}]]}
    assert dict(parse_map_document(doc).components[0].terms) == reference_parse_map_document(doc)[1][0][1]
    form = parse_form_document({"n": 1, "basis": [[0]], "gram": [[literal]]})
    assert form.coefficient(Monomial((0,)), Monomial((0,))) == reference_fraction(literal)


REFUSED = [
    "1/-2", "1/0", "1e5000", "0x10", "1" * 4301, "1/" + "7" * 4301, "-", "1/", "3/+4",
    "1__0", "_1", "1_", "1_/2",
]


@pytest.mark.parametrize("kind", ["map", "form"])
@pytest.mark.parametrize(
    "literal", REFUSED, ids=[lit if len(lit) < 20 else f"{len(lit)}-chars" for lit in REFUSED]
)
def test_refused_literals_exit_2_with_the_same_message(literal, kind, tmp_path, capsys):
    if kind == "map":
        doc = {"n": 1, "components": [[{"exp": [1], "re": 1, "im": literal}]]}
    else:
        doc = {"n": 1, "basis": [[0]], "gram": [[{"re": literal}]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rank", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad rational literal {literal!r}\n"
