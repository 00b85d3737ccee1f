"""Command line front end.

Subcommands operate on JSON documents (see ``documents``) and print either
human-readable text or CSV.  Exit codes: 0 success, 1 a verification that
ran and failed, 2 malformed input or an invalid value (including a
``tensor-rank`` job above ``TENSOR_ROWS_MAX`` products), 3 a map that does
not vanish at the origin, 4 a map with linearly dependent components, 5 an
internal invariant violated (an ``ArithmeticError`` from a check that
cannot fail on correct code, such as an inexact division in elimination).

``main`` can be called many times in one process.  It builds the parser on
its first call and reuses it; each call parses into a fresh namespace, so
no option value carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
from fractions import Fraction
from math import comb

from .bounds import (
    check_affine_norm_product,
    check_gap_feasible,
    check_homogeneous_norm_product,
    check_min_embedding_dim,
    check_modification_rank,
    check_norm_product,
    check_power_rank,
    check_rational_modification_rank,
    gap_intervals,
    prime_substitution,
)
from .documents import (
    DocumentError,
    EnsembleConfig,
    parse_form_document,
    parse_map_document,
    random_map,
    serialize_form_document,
    serialize_map_document,
)
from .isometry import (
    NotMinimalError,
    NotNormalizedError,
    divide_by_norm,
    identity_mismatch,
    one_plus_norm,
    one_plus_norm_z,
    r_lambda,
    solve_h,
    tensor_power_rank,
)
from .polyalg import Monomial, norm_form
from .rankdecomp import affine_split, extract_sos, inertia

THEOREMS = {
    "thm1.1": (check_modification_rank, ("n", "d", "m")),
    "cor1.3": (check_gap_feasible, ("n", "m")),
    "thm1.4": (check_rational_modification_rank, ("n", "e", "m", "a", "b")),
    "prop2.1": (check_homogeneous_norm_product, ("n", "p", "r")),
    "thm2.2": (check_norm_product, ("n", "p", "r")),
    "thm2.4": (check_affine_norm_product, ("n", "p", "r")),
    "prop2.5": (check_power_rank, ("p", "t", "r")),
    "rem1.6": (check_min_embedding_dim, ("n", "m")),
}


# The most products of components `tensor-rank` row-reduces.  At this count
# 15 dense independent linear forms at t = 2 (135 products, all independent)
# take about 1.2 s on a 2-vCPU x86-64 VM; the time grows faster than the cube
# of the count, and components of higher degree take longer at the same count.
TENSOR_ROWS_MAX = 135


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_form(path: str):
    """A map document yields its squared-norm form; a form document, itself."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "components" in doc:
        return norm_form(parse_map_document(doc))
    return parse_form_document(doc)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _print_report(report, fmt: str):
    if fmt == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["theorem", "observed", "lower", "upper", "satisfied"])
        writer.writerow(
            [
                report.theorem,
                report.observed,
                report.lower,
                "" if report.upper is None else report.upper,
                _bool_text(report.satisfied),
            ]
        )
        return
    print(f"theorem: {report.theorem}")
    print("inputs: " + " ".join(f"{k}={v}" for k, v in report.inputs.items()))
    print(f"observed: {report.observed}")
    print(f"lower: {report.lower}")
    print("upper: " + ("none" if report.upper is None else str(report.upper)))
    print(f"satisfied: {_bool_text(report.satisfied)}")


def cmd_rank(args) -> int:
    doc = _read_json(args.input)
    component_count = None
    if isinstance(doc, dict) and "components" in doc:
        f = parse_map_document(doc)
        form = norm_form(f)
        component_count = len(f)
    else:
        form = parse_form_document(doc)
    sig = inertia(form)
    minimal = None if component_count is None else component_count == sig.rank
    if args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["rank", "positive", "negative", "sos", "minimal"])
        writer.writerow(
            [
                sig.rank,
                sig.pos,
                sig.neg,
                _bool_text(sig.neg == 0),
                "" if minimal is None else _bool_text(minimal),
            ]
        )
        return 0
    print(f"rank: {sig.rank}")
    print(f"positive: {sig.pos}")
    print(f"negative: {sig.neg}")
    print(f"sos: {_bool_text(sig.neg == 0)}")
    if minimal is not None:
        print(f"minimal: {_bool_text(minimal)}")
    return 0


def cmd_solve_h(args) -> int:
    f = parse_map_document(_read_json(args.input))
    h = solve_h(f, args.b, args.c)
    print(f"m: {len(h)}")
    for i, (weight, poly) in enumerate(h.weighted_components()):
        print(f"component {i}: scale {weight}, poly {poly}")
    if args.b == 1 and args.c == 1:
        # thm2.4 bounds the rank of (1 + ||z||^2)(1 + ||f||^2) - 1 only
        _print_report(check_affine_norm_product(f.n, len(f), len(h)), "text")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(serialize_map_document(h), handle, indent=2)
            handle.write("\n")
    return 0


def cmd_verify(args) -> int:
    f = parse_map_document(_read_json(args.f))
    h = parse_map_document(_read_json(args.h))
    mismatches = identity_mismatch(f, h, args.a, args.b, args.c)
    if not mismatches:
        print("identity holds")
        return 0
    print("identity fails; mismatched entries:")
    for ma, mb, value in mismatches:
        print(f"  {ma} * conj({mb}): {value}")
    return 1


def cmd_tensor_rank(args) -> int:
    f = parse_map_document(_read_json(args.input))
    # sum_{k=1..t} C(p+k-1, k) = C(p+t, t) - 1, checked before any product is built
    products = comb(len(f) + args.t, args.t) - 1 if args.t >= 1 else 0
    if products > TENSOR_ROWS_MAX:
        raise ValueError(
            f"tensor-rank would row-reduce {products} products of components; "
            f"the limit is {TENSOR_ROWS_MAX}"
        )
    rank = tensor_power_rank(f, args.t)
    report = check_power_rank(len(f), args.t, rank)
    if args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["rank", "lower", "upper", "satisfied"])
        writer.writerow([rank, report.lower, report.upper, _bool_text(report.satisfied)])
        return 0
    print(f"rank: {rank}")
    print(f"lower: {report.lower}")
    print(f"upper: {report.upper}")
    print(f"satisfied: {_bool_text(report.satisfied)}")
    return 0


def cmd_gaps(args) -> int:
    intervals = gap_intervals(args.n)
    if args.format == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(["lower", "upper"])
        for lo, hi in intervals:
            writer.writerow([lo, hi])
        return 0
    print(" ".join(f"({lo},{hi})" for lo, hi in intervals))
    return 0


def cmd_bounds(args) -> int:
    if args.theorem not in THEOREMS:
        raise ValueError(
            f"unknown theorem {args.theorem!r}; known: {', '.join(sorted(THEOREMS))}"
        )
    func, names = THEOREMS[args.theorem]
    values = {}
    for item in args.values:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {item!r}")
        try:
            values[key] = int(raw)
        except ValueError as exc:
            raise ValueError(f"value for {key!r} must be an integer") from exc
    if set(values) != set(names):
        raise ValueError(
            f"theorem {args.theorem} needs exactly: " + " ".join(names)
        )
    report = func(**values)
    _print_report(report, args.format)
    return 0


def cmd_primes(args) -> int:
    exponents = prime_substitution(args.n, args.t)
    print(" ".join(str(a) for a in exponents))
    return 0


def cmd_divide(args) -> int:
    form = parse_form_document(_read_json(args.input))
    quotient = divide_by_norm(form)
    if quotient is None:
        print("divisible: false")
        return 0
    print("divisible: true")
    print(json.dumps(serialize_form_document(quotient), indent=2))
    return 0


def cmd_example1(args) -> int:
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational lambda {args.lam!r}") from exc
    r = r_lambda(lam)
    print(f"lambda: {lam}")
    r_diag = [r.coefficient(Monomial((k,)), Monomial((k,))) for k in range(5)]
    print("R diagonal: " + " ".join(str(v) for v in r_diag))
    sig = inertia(r)
    print(f"R inertia: positive {sig.pos}, negative {sig.neg}")
    print(f"R sos: {_bool_text(sig.neg == 0)}")

    p_form = one_plus_norm_z(1) * r
    p_diag = [p_form.coefficient(Monomial((k,)), Monomial((k,))) for k in range(6)]
    print("P = (1+|z|^2) R diagonal: " + " ".join(str(v) for v in p_diag))
    p_ok, m = affine_split(p_form)
    print(f"P splits as 1 + ||f||^2: {_bool_text(p_ok)}" + (f", m = {m}" if p_ok else ""))

    s_form = r * r
    s_diag = [s_form.coefficient(Monomial((k,)), Monomial((k,))) for k in range(9)]
    print("S = R^2 diagonal: " + " ".join(str(v) for v in s_diag))
    s_ok, d = affine_split(s_form)
    print(f"S splits as 1 + ||g||^2: {_bool_text(s_ok)}" + (f", d = {d}" if s_ok else ""))

    if p_ok and s_ok:
        f_map = extract_sos(p_form.drop_constant())
        g_map = extract_sos(s_form.drop_constant())
        holds = one_plus_norm_z(1) ** 2 * one_plus_norm(g_map) == one_plus_norm(f_map) ** 2
        print(f"identity (1+|z|^2)^2 (1+||g||^2) == (1+||f||^2)^2: {_bool_text(holds)}")
        print(f"m < d: {_bool_text(m < d)}")
    return 0


def cmd_ensemble(args) -> int:
    if args.config:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise DocumentError("ensemble config must be an object")
        allowed = {"n", "d_max", "degree_max", "count", "seed", "coefficient_height"}
        extra = set(doc) - allowed
        if extra:
            raise DocumentError(f"unknown config keys {sorted(extra)}")
        try:
            cfg = EnsembleConfig(**doc)
        except TypeError as exc:
            raise DocumentError(str(exc)) from exc
    else:
        missing = [
            flag
            for flag, value in (
                ("--n", args.n),
                ("--d-max", args.d_max),
                ("--degree-max", args.degree_max),
                ("--count", args.count),
                ("--seed", args.seed),
            )
            if value is None
        ]
        if missing:
            raise ValueError("missing " + " ".join(missing) + " (or use --config)")
        cfg = EnsembleConfig(
            n=args.n,
            d_max=args.d_max,
            degree_max=args.degree_max,
            count=args.count,
            seed=args.seed,
            coefficient_height=args.height,
        )
    rng = random.Random(cfg.seed)
    rows = []
    for _ in range(cfg.count):
        p = rng.randint(1, cfg.d_max)
        f = random_map(rng, cfg.n, p, cfg.degree_max, cfg.coefficient_height)
        m = len(solve_h(f, 1, 1))
        report = check_affine_norm_product(cfg.n, p, m)
        gap = check_gap_feasible(cfg.n, m)
        rows.append(
            [
                cfg.n,
                p,
                f.max_degree,
                m,
                report.lower,
                "" if report.upper is None else report.upper,
                _bool_text(not gap.satisfied),
            ]
        )
    stream = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
    try:
        writer = _csv_writer(stream)
        writer.writerow(["n", "d", "degree", "m", "lower", "upper", "in_gap"])
        writer.writerows(rows)
    finally:
        if args.output:
            stream.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command line parser; ``main`` runs subcommand ``x-y`` by ``cmd_x_y``."""
    parser = argparse.ArgumentParser(
        prog="hermsos",
        description="Exact rank, square decompositions, and bounds for Hermitian squared-norm forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank and inertia of a map or form document")
    p.add_argument("--input", required=True, help="path to a map or form JSON document")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("solve-h", help="minimal h with 1+||h||^2 = (1+||z||^2)^b (1+||f||^2)^c")
    p.add_argument("--input", required=True, help="path to the map document for f")
    p.add_argument("--b", type=int, default=1, help="exponent on 1+||z||^2")
    p.add_argument("--c", type=int, default=1, help="exponent on 1+||f||^2")
    p.add_argument("--output", help="write h as a map document to this path")

    p = sub.add_parser("verify", help="check (1+||z||^2)^b (1+||f||^2)^c == (1+||h||^2)^a")
    p.add_argument("f", help="path to the map document for f")
    p.add_argument("h", help="path to the map document for h")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("tensor-rank", help="rank of (1+||f||^2)^t - 1")
    p.add_argument("--input", required=True, help="path to the map document for f")
    p.add_argument("--t", type=int, required=True, help="power")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("gaps", help="impossible component-count intervals for n variables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("bounds", help="evaluate one bound check, e.g. bounds thm2.4 n=2 p=1 r=4")
    p.add_argument("theorem", help="one of: " + " ".join(sorted(THEOREMS)))
    p.add_argument("values", nargs="*", help="key=value integer assignments")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("primes", help="power substitution exponents injective up to degree t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("divide", help="exact quotient of a bihomogeneous form by ||z||^2")
    p.add_argument("--input", required=True, help="path to a form JSON document")

    p = sub.add_parser("example1", help="walk the one-variable diagonal family at a given lambda")
    p.add_argument("--lambda", dest="lam", default="7", help="rational lambda, e.g. 7 or 13/2")

    p = sub.add_parser("ensemble", help="random minimal maps; CSV of counts against bounds")
    p.add_argument("--config", help="path to a JSON config object")
    p.add_argument("--n", type=int)
    p.add_argument("--d-max", dest="d_max", type=int)
    p.add_argument("--degree-max", dest="degree_max", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--height", type=int, default=5, help="coefficient height bound")
    p.add_argument("--output", help="write the CSV here instead of stdout")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call.

    Parsing leaves a parser unchanged and fills a new namespace each time,
    so one parser serves every later call.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    # the handler is looked up now, not when the parser was built, so a
    # replaced ``cmd_*`` attribute is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NotNormalizedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotMinimalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DocumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
