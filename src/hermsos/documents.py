"""JSON document formats for maps and forms, plus random ensembles.

Map documents::

    {"n": 2, "components": [[{"exp": [1, 0], "re": "1", "im": 0}], ...]}

Each component is a list of terms; ``re``/``im`` are exact rationals given
as integers or strings like ``"3/4"`` (floats are rejected).  A component
may instead be an object ``{"scale": "1/2", "terms": [...]}``; if any
component carries a scale the document parses to a weighted map.  A weighted
map with no components is written with a top-level ``"scaled": true``, the
only value that key accepts.

Form documents::

    {"n": 1, "basis": [[0], [1]], "gram": [[{"re": 1, "im": 0}, ...], ...]}

The gram matrix must be Hermitian; the parser re-validates everything the
constructors validate and converts failures to ``DocumentError`` so
callers can treat malformed input uniformly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

from .polyalg import (
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    monomials_up_to_degree,
)
from .rankdecomp import ScaledMap, reduce_minimal


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent above 4300 in magnitude.

    Fraction builds the power of ten in full, so a short literal such as
    "1e3000000" would take seconds; 4300 is the digit limit CPython puts on
    integer strings.  Raises ValueError or ZeroDivisionError like Fraction.
    """
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > 4300:
        raise ValueError(f"decimal exponent of {text!r} is out of range")
    return Fraction(text)


def _rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise DocumentError("floats are not accepted; use strings like \"3/4\"")
    raise DocumentError(f"bad rational value of type {type(value).__name__}")


def _rational_to_json(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return str(value)


def _scalar_from_json(obj) -> GaussianRational:
    # Bare rationals are taken as real entries; objects carry both parts.
    if not isinstance(obj, dict):
        return GaussianRational(_rational_from_json(obj), Fraction(0))
    extra = set(obj) - {"re", "im"}
    if extra:
        raise DocumentError(f"unknown scalar keys {sorted(extra)}")
    re = _rational_from_json(obj.get("re", 0))
    im = _rational_from_json(obj.get("im", 0))
    return GaussianRational(re, im)


def _scalar_to_json(value: GaussianRational) -> dict:
    return {"re": _rational_to_json(value.re), "im": _rational_to_json(value.im)}


def _poly_from_terms(n: int, terms) -> HoloPoly:
    if not isinstance(terms, list):
        raise DocumentError("a component must be a list of terms")
    acc = {}
    for term in terms:
        if not isinstance(term, dict):
            raise DocumentError("terms must be objects")
        extra = set(term) - {"exp", "re", "im"}
        if extra:
            raise DocumentError(f"unknown term keys {sorted(extra)}")
        exp = term.get("exp")
        if (
            not isinstance(exp, list)
            or len(exp) != n
            or any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp)
        ):
            raise DocumentError("term exp must be a list of n non-negative integers")
        mon = Monomial(tuple(exp))
        if mon in acc:
            raise DocumentError(f"duplicate exponent {exp} in one component")
        acc[mon] = GaussianRational(
            _rational_from_json(term.get("re", 0)), _rational_from_json(term.get("im", 0))
        )
    return HoloPoly(n, acc)


def parse_map_document(doc) -> Union[HoloMap, ScaledMap]:
    """Parse a map document; returns a weighted map iff any component has a scale."""
    if not isinstance(doc, dict):
        raise DocumentError("map document must be an object")
    extra = set(doc) - {"n", "components", "scaled"}
    if extra:
        raise DocumentError(f"unknown document keys {sorted(extra)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("n must be a positive integer")
    raw = doc.get("components")
    if not isinstance(raw, list):
        raise DocumentError("components must be a list")
    scaled = "scaled" in doc
    if scaled and doc["scaled"] is not True:
        raise DocumentError("scaled must be true")
    pairs = []
    for comp in raw:
        if isinstance(comp, dict):
            extra = set(comp) - {"scale", "terms"}
            if extra:
                raise DocumentError(f"unknown component keys {sorted(extra)}")
            weight = _rational_from_json(comp.get("scale", 1))
            if weight <= 0:
                raise DocumentError("component scale must be positive")
            if "scale" in comp:
                scaled = True
            pairs.append((weight, _poly_from_terms(n, comp.get("terms"))))
        else:
            pairs.append((Fraction(1), _poly_from_terms(n, comp)))
    try:
        if scaled:
            return ScaledMap(n, tuple(pairs))
        return HoloMap(n, [poly for _, poly in pairs])
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def serialize_map_document(f) -> dict:
    """Inverse of ``parse_map_document``; plain maps stay plain."""
    components = []
    plain = isinstance(f, HoloMap)
    for weight, poly in f.weighted_components():
        terms = [
            {
                "exp": list(mon.exponents),
                "re": _rational_to_json(coeff.re),
                "im": _rational_to_json(coeff.im),
            }
            for mon, coeff in poly.sorted_terms()
        ]
        if plain:
            components.append(terms)
        else:
            components.append({"scale": _rational_to_json(weight), "terms": terms})
    if plain or components:
        return {"n": f.n, "components": components}
    return {"n": f.n, "components": components, "scaled": True}


def parse_form_document(doc) -> HermitianForm:
    if not isinstance(doc, dict):
        raise DocumentError("form document must be an object")
    extra = set(doc) - {"n", "basis", "gram"}
    if extra:
        raise DocumentError(f"unknown document keys {sorted(extra)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("n must be a positive integer")
    raw_basis = doc.get("basis")
    if not isinstance(raw_basis, list):
        raise DocumentError("basis must be a list of exponent lists")
    basis = []
    for exp in raw_basis:
        if (
            not isinstance(exp, list)
            or len(exp) != n
            or any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp)
        ):
            raise DocumentError("basis entries must be lists of n non-negative integers")
        basis.append(Monomial(tuple(exp)))
    raw_gram = doc.get("gram")
    if not isinstance(raw_gram, list) or any(not isinstance(r, list) for r in raw_gram):
        raise DocumentError("gram must be a list of rows")
    gram = [[_scalar_from_json(cell) for cell in row] for row in raw_gram]
    try:
        return HermitianForm(n, basis, gram)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def serialize_form_document(a: HermitianForm) -> dict:
    return {
        "n": a.n,
        "basis": [list(mon.exponents) for mon in a.basis],
        "gram": [[_scalar_to_json(v) for v in row] for row in a.gram],
    }


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters for a reproducible random-map ensemble."""

    n: int
    d_max: int
    degree_max: int
    count: int
    seed: int
    coefficient_height: int = 5

    def __post_init__(self):
        for name in ("n", "d_max", "degree_max", "coefficient_height"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not isinstance(self.count, int) or self.count < 0:
            raise ValueError("count must be a non-negative integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def random_map(
    rng: random.Random, n: int, p: int, degree_max: int, height: int = 5
) -> HoloMap:
    """A random map with p linearly independent components vanishing at 0.

    Term selection is a coin flip per monomial of degree 1..degree_max;
    coefficients are rationals with numerator and denominator bounded by
    the height.  Draws are rejected until the components are independent
    and individually nonzero, so the result is always minimal.
    """
    if p < 1 or degree_max < 1 or height < 1:
        raise ValueError("p, degree_max, and height must be positive")
    candidates = [m for m in monomials_up_to_degree(n, degree_max) if m.degree >= 1]

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
