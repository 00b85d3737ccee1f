"""JSON document formats for maps and forms, plus random ensembles.

Map documents::

    {"n": 2, "components": [[{"exp": [1, 0], "re": "1", "im": 0}], ...]}

Each component is a list of terms; ``re``/``im`` are exact rationals given
as integers or strings (floats and booleans are rejected, as the library
constructors refuse them).  A string is read as Python 3.11's ``Fraction``
reads it, on every version: "p", "p/q" or a decimal such as "2.5e-3", with
an optional sign and surrounding spaces, and an underscore only between two
digits, where it is dropped.  Integers are read without a call; a string is
read by ``polyalg._parse_rational``, the one literal reader, which
``GaussianRational`` and ``example1 --lambda`` use too, and which reads the
ASCII literals "p", "-p", "p/q" and "-p/q" straight into integers.  A
component may instead be an object ``{"scale": "1/2", "terms": [...]}``; if
any component carries a scale the document parses to a weighted map.  A
weighted map with no components is written with a top-level
``"scaled": true``, the only value that key accepts.

Form documents::

    {"n": 1, "basis": [[0], [1]], "gram": [[{"re": 1, "im": 0}, ...], ...]}

A gram cell is a rational, read as its real part, or an object with "re"
and "im".  The gram is read in one pass, as a component's terms are: each
cell's keys, then "re", then "im", an int literal without a call.  Then come,
in this order, the checks that the basis monomials are distinct and that the
gram is square over the basis (``polyalg._check_square``, the dense
constructor's check), and that it is Hermitian, made on its integer
numerators over one common denominator.  Every failure, here and of what the
constructors would check, is a ``DocumentError``, so callers can treat
malformed input uniformly.

A term is read in one pass, and its checks run in this order: its keys,
its exponents (each an int, not a bool or a float, and not negative; a basis
entry of a form document is checked the same way), that no earlier term of
the component has the same exponents, then "re", then "im".  An int literal
is read without a call.  A component's monomials are taken from the
process-wide table only after every term has passed, once each.  Both
readers put their numerators over one common denominator with
``polyalg._common_den``, the route the constructors take; only the
denominators other than 1 enter its lcm, and none when every literal is an
int.  A count such as ``n`` meets
``polyalg._is_int_at_least``, the constructors' rule.  Checked values are
built with the unvalidated ``_build`` constructors, which the package keeps
for values it built itself or has already checked.

The map writer reads each polynomial's ``term_texts``, the rendering of its
coefficients that ``str`` also reads, so a map printed and then written
renders each coefficient once.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .polyalg import (
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    _check_hermitian,
    _check_square,
    _common_den,
    _is_int_at_least,
    _parse_rational,
    _ratio_text,
    monomials_up_to_degree,
)
from .rankdecomp import reduce_minimal


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def _rational_from_json(value) -> Tuple[int, int]:
    """A JSON rational as (numerator, denominator > 0), not reduced: an int as
    itself, a string by ``_parse_rational``."""
    if isinstance(value, bool):
        raise DocumentError("booleans are not rationals")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        try:
            return _parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise DocumentError("floats are not accepted; use strings like \"3/4\"")
    raise DocumentError(f"bad rational value of type {type(value).__name__}")


def _parts(real, imag) -> Tuple[int, int, int, int]:
    """(a, b, c, d) for the JSON parts real = a/b and imag = c/d; an int is
    taken as it is, without the literal reader."""
    a, b = (real, 1) if type(real) is int else _rational_from_json(real)
    c, d = (imag, 1) if type(imag) is int else _rational_from_json(imag)
    return a, b, c, d


def _check_keys(obj: dict, allowed, what: str) -> None:
    """Refuse any key of obj outside allowed, naming the object as what."""
    extra = obj.keys() - allowed
    if extra:
        raise DocumentError(f"unknown {what} keys {sorted(extra)}")


def _is_exponent_list(exp, ints: tuple) -> bool:
    """Whether exp is a list of n non-negative ints, ints being (int,) * n.

    By type, not value: 1.0 and True would pass as exponents, and (1.0,) and
    (True,) are keys equal to (1,); n >= 1, so min has an argument."""
    return isinstance(exp, list) and len(exp) == len(ints) and tuple(map(type, exp)) == ints and min(exp) >= 0


_TERM_KEYS = frozenset(("exp", "re", "im"))


def _poly_from_terms(n: int, terms) -> HoloPoly:
    """A component from its JSON terms, each checked in one pass: its keys, its
    exponents, that they are new to the component, then "re" and "im"."""
    if not isinstance(terms, list):
        raise DocumentError("a component must be a list of terms")
    ints = (int,) * n
    values = {}  # (a, b, c, d) for a/b + (c/d)*i, keyed by exponent tuple
    for term in terms:
        if not isinstance(term, dict):
            raise DocumentError("terms must be objects")
        if not term.keys() <= _TERM_KEYS:
            _check_keys(term, _TERM_KEYS, "term")
        exp = term.get("exp")
        if not _is_exponent_list(exp, ints):
            raise DocumentError("term exp must be a list of n non-negative integers")
        exps = tuple(exp)
        if exps in values:
            raise DocumentError(f"duplicate exponent {exp} in one component")
        values[exps] = _parts(term.get("re", 0), term.get("im", 0))
    q, cells = _common_den(values)
    build = Monomial._build
    return HoloPoly._build(n, q, {build(exps): cell for exps, cell in cells.items()})


def parse_map_document(doc) -> HoloMap:
    """Parse a map document; the map is weighted iff any component has a scale."""
    if not isinstance(doc, dict):
        raise DocumentError("map document must be an object")
    _check_keys(doc, ("n", "components", "scaled"), "document")
    n = doc.get("n")
    if not _is_int_at_least(n, 1):
        raise DocumentError("n must be a positive integer")
    raw = doc.get("components")
    if not isinstance(raw, list):
        raise DocumentError("components must be a list")
    scaled = "scaled" in doc
    if scaled and doc["scaled"] is not True:
        raise DocumentError("scaled must be true")
    one = Fraction(1)
    polys, weights = [], []
    for comp in raw:
        if isinstance(comp, dict):
            _check_keys(comp, ("scale", "terms"), "component")
            weight = Fraction(*_rational_from_json(comp.get("scale", 1)))
            if weight <= 0:
                raise DocumentError("component scale must be positive")
            if "scale" in comp:
                scaled = True
            weights.append(weight)
            polys.append(_poly_from_terms(n, comp.get("terms")))
        else:
            weights.append(one)
            polys.append(_poly_from_terms(n, comp))
    # every component and weight is checked, so the map is built unchecked
    return HoloMap._build(n, tuple(polys), tuple(weights) if scaled else None)


def serialize_map_document(f) -> dict:
    """Inverse of ``parse_map_document``; plain maps stay plain."""
    return json.loads(serialize_map_json(f))


def serialize_map_json(f) -> str:
    """The map document of f as JSON text, laid out as ``json.dumps(doc, indent=2)``
    lays it out, plus a final newline; written from the integer numerators."""
    plain = f.weights is None
    pad = " " * (8 if plain else 10)  # the indent of a term's keys
    tail = f',\n{pad}"im": '
    heads = {}  # each monomial's term text up to its "re" value, rendered once
    blocks = []
    for weight, poly in f.weighted_components():
        terms = []
        for mon, re, im in poly.term_texts():
            head = heads.get(mon)
            if head is None:
                head = heads[mon] = _term_head(pad, mon)
            if "/" in re:
                re = f'"{re}"'
            if "/" in im:
                im = f'"{im}"'
            terms.append(f"{head}{re}{tail}{im}\n{pad[2:]}}}")
        terms = "[\n" + ",\n".join(terms) + f"\n{pad[4:]}]" if terms else "[]"
        if not plain:
            scale = _json_ratio(weight.numerator, weight.denominator)
            terms = f'{{\n      "scale": {scale},\n      "terms": {terms}\n    }}'
        blocks.append("    " + terms)
    components = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    scaled = "" if plain or blocks else ',\n  "scaled": true'
    return f'{{\n  "n": {f.n},\n  "components": {components}{scaled}\n}}\n'


def _term_head(pad: str, mon: Monomial) -> str:
    """A term object of a map document up to its "re" value, its keys indented by pad."""
    exps = f",\n{pad}  ".join(map(str, mon.exponents))
    return f'{pad[2:]}{{\n{pad}"exp": [\n{pad}  {exps}\n{pad}],\n{pad}"re": '


def _json_ratio(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms as JSON: an int, or a string like "-3/4"."""
    text = _ratio_text(num, den)
    return f'"{text}"' if "/" in text else text


_SCALAR_KEYS = frozenset(("re", "im"))


def parse_form_document(doc) -> HermitianForm:
    """Parse a form document; its gram is read in one pass over the cells."""
    if not isinstance(doc, dict):
        raise DocumentError("form document must be an object")
    _check_keys(doc, ("n", "basis", "gram"), "document")
    n = doc.get("n")
    if not _is_int_at_least(n, 1):
        raise DocumentError("n must be a positive integer")
    raw_basis = doc.get("basis")
    if not isinstance(raw_basis, list):
        raise DocumentError("basis must be a list of exponent lists")
    ints = (int,) * n
    if not all(_is_exponent_list(exp, ints) for exp in raw_basis):
        raise DocumentError("basis entries must be lists of n non-negative integers")
    basis = [Monomial._build(tuple(exp)) for exp in raw_basis]
    raw_gram = doc.get("gram")
    if not isinstance(raw_gram, list) or any(not isinstance(r, list) for r in raw_gram):
        raise DocumentError("gram must be a list of rows")
    values = {}  # (a, b, c, d) for a/b + (c/d)*i of each nonzero cell, keyed by (i, j)
    # every literal is read first, so a bad literal is reported before a bad shape
    for i, row in enumerate(raw_gram):
        for j, cell in enumerate(row):
            if isinstance(cell, dict):
                if not cell.keys() <= _SCALAR_KEYS:
                    _check_keys(cell, _SCALAR_KEYS, "scalar")
                real, imag = cell.get("re", 0), cell.get("im", 0)
            else:
                real, imag = cell, 0  # a bare value is the real part
            a, b, c, d = _parts(real, imag)
            if a or c:
                values[i, j] = (a, b, c, d)
    try:
        _check_square(basis, raw_gram)
        q, cells = _common_den(values)
        _check_hermitian(cells)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return HermitianForm._build(n, basis, q, cells)


def serialize_form_document(a: HermitianForm) -> dict:
    """Inverse of ``parse_form_document``: every gram entry as {"re", "im"}."""
    return json.loads(serialize_form_json(a))


def serialize_form_json(a: HermitianForm) -> str:
    """The form document of a as JSON text, laid out as ``json.dumps(doc, indent=2)``
    lays it out, plus a final newline; written from the integer numerators."""
    if not a.basis:
        return f'{{\n  "n": {a.n},\n  "basis": [],\n  "gram": []\n}}\n'
    den = a.den
    zero = '      {\n        "re": 0,\n        "im": 0\n      }'
    rows = [[zero] * a.size for _ in a.basis]
    for (i, j), (re, im) in a.cells.items():
        rows[i][j] = f'      {{\n        "re": {_json_ratio(re, den)},\n        "im": {_json_ratio(im, den)}\n      }}'
    basis = ",\n".join("    [\n      " + ",\n      ".join(map(str, mon.exponents)) + "\n    ]" for mon in a.basis)
    gram = ",\n".join("    [\n" + ",\n".join(row) + "\n    ]" for row in rows)
    return f'{{\n  "n": {a.n},\n  "basis": [\n{basis}\n  ],\n  "gram": [\n{gram}\n  ]\n}}\n'


class EnsembleConfig(
    namedtuple("EnsembleConfig", "n d_max degree_max count seed coefficient_height", defaults=(5,))
):
    """Parameters for a reproducible random-map ensemble, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("n", "d_max", "degree_max", "coefficient_height"):
            if not _is_int_at_least(getattr(self, name), 1):
                raise ValueError(f"{name} must be a positive integer")
        if not _is_int_at_least(self.count, 0):
            raise ValueError("count must be a non-negative integer")
        if not _is_int_at_least(self.seed, 0) or self.seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        return self

    # namedtuple's _make, and so _replace, would build without the checks
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def random_map(
    rng: random.Random, n: int, p: int, degree_max: int, height: int = 5
) -> HoloMap:
    """A random map with p linearly independent components vanishing at 0.

    Term selection is a coin flip per monomial of degree 1..degree_max;
    coefficients are rationals with numerator and denominator bounded by
    the height.  Draws are rejected until the components are independent
    and individually nonzero, so the result is always minimal.  Raises
    ValueError when p exceeds the number of monomials of degree 1..degree_max.
    """
    if not all(_is_int_at_least(value, 1) for value in (p, degree_max, height)):
        raise ValueError("p, degree_max, and height must be positive")
    candidates = [m for m in monomials_up_to_degree(n, degree_max) if m.degree >= 1]
    # p independent components need p monomials to span; fewer would redraw forever
    if p > len(candidates):
        raise ValueError(
            f"{p} independent components need {p} monomials; degree 1..{degree_max} has {len(candidates)}"
        )

    def draw_poly() -> HoloPoly:
        terms = {}
        for mon in candidates:
            if rng.random() < 0.5:
                num = rng.randint(-height, height)
                if not num:
                    continue
                terms[mon] = Fraction(num, rng.randint(1, height))
        return HoloPoly(n, terms)

    while True:
        comps = []
        for _ in range(p):
            poly = draw_poly()
            while poly.is_zero:
                poly = draw_poly()
            comps.append(poly)
        f = HoloMap(n, comps)
        _, rank = reduce_minimal(f)
        if rank == p:
            return f
