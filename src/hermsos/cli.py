"""Command line front end.

Subcommands operate on JSON documents (see ``documents``) and print either
human-readable text or CSV.  Exit codes: 0 success, 1 a verification that
ran and failed, 2 malformed input or an invalid value (including a
``tensor-rank`` job above ``TENSOR_ROWS_MAX`` products, a ``solve-h`` block
above ``SOLVE_H_BLOCK_MAX`` basis monomials, and a ``bounds`` or ``example1``
value of more than 4300 digits), 3 a map that does not vanish at the
origin, 4 a map with linearly dependent components, 5 an internal invariant
violated (an ``ArithmeticError`` from a check that cannot fail on correct
code, such as an inexact division in elimination).  A command that exits 2
to 5 writes nothing to stdout.

``main`` can be called many times in one process.  It builds the parser on
its first call and reuses it; each call parses into a fresh namespace, so
no option value carries over from one call to the next.  An argv whose first
string names a subcommand is parsed once, by that subcommand's parser alone;
any other argv (none, -h, an unknown or abbreviated command) by the full
parser.  Both give the same namespace, exit code and messages.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import random
import re
import sys
from math import log10

from .bounds import (
    _power_sum,
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
    _check_keys,
    parse_form_document,
    parse_map_document,
    random_map,
    serialize_form_json,
    serialize_map_json,
)
from .isometry import (
    NotMinimalError,
    NotNormalizedError,
    divide_by_norm,
    identity_mismatch,
    one_plus_norm,
    r_lambda,
    solve_h,
    tensor_power_rank,
    verify_identity,
)
from .polyalg import HoloMap, Monomial, _as_fraction, norm_form
from .rankdecomp import affine_split, inertia

# `bounds` takes each check's parameters, in order, as its key=value names
THEOREMS = {
    "thm1.1": check_modification_rank,
    "cor1.3": check_gap_feasible,
    "thm1.4": check_rational_modification_rank,
    "prop2.1": check_homogeneous_norm_product,
    "thm2.2": check_norm_product,
    "thm2.4": check_affine_norm_product,
    "prop2.5": check_power_rank,
    "rem1.6": check_min_embedding_dim,
}


# The most products of components `tensor-rank` ranks, mod a prime and exactly only
# when that falls short: 15 linear forms at t = 2 (135 products) take 0.006 s with 3
# terms each and 0.09 s with 15 complex ones, 6 dense quartics in 3 variables at
# t = 3 (83) 0.26 s (medians of 5 runs, 2-vCPU Intel Xeon VM, CPython 3.11).
TENSOR_ROWS_MAX = 135

# The most basis monomials in the block `solve-h` eliminates; the time is
# cubic in its largest connected part.  On a 2-vCPU x86-64 VM a connected
# block of 252 monomials at full rank takes 5.3 s, while the diagonal block of
# (z0) in 2 variables at b = 20 (251 monomials) takes 2 ms in-process.  A
# block is refused on the closed bound C(n + b, n) - 1 + c before anything is
# built, else counted on the product's basis before any cell is added.  On
# (z0), b = 1000, b = 10^6 and c = 3000 exit 2 in about 0.09 s, interpreter
# start included (medians of 7 runs, CPython 3.11), against 1.0 s, no end and
# 16 s when every block was counted.  `ensemble` is not limited.
SOLVE_H_BLOCK_MAX = 256


def _int(text: str) -> int:
    """An integer option or ``bounds`` value: ASCII digits after an optional
    minus, as in a JSON integer.  ``int`` alone also takes spaces, "+", "_"
    and non-ASCII digits; the message is the one argparse gives for it."""
    if re.fullmatch(r"-?[0-9]+", text):
        with contextlib.suppress(ValueError):  # more than 4300 digits
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _print_record(fmt: str, record: dict):
    """"key: value" lines, or a CSV header and one row; a None value is
    left out of the text and written as an empty CSV cell."""
    if fmt == "csv":
        writer = _csv_writer(sys.stdout)
        writer.writerow(record.keys())
        writer.writerow(record.values())
        return
    for key, value in record.items():
        if value is not None:
            print(f"{key}: {value}")


def _check_printable(what: str, values):
    """Refuse a numerator or denominator of more than 4300 digits, which str()
    would refuse with the interpreter's message, with the package's own."""
    if any(abs(q.numerator) >= 10**4300 or q.denominator >= 10**4300 for q in values):
        raise ValueError(f"{what} has more than 4300 digits")


def _check_power_sum_printable(p: int, t: int):
    """Refuse the bound C(p+t, t) - 1 before it is built, which takes seconds at
    a million digits, when it surely has more than 4300: for k = min(p, t) >= 1,
    C(p+t, k) >= ((p+t)/k)^k >= 2^k.  Short of that it is built, and
    ``_check_printable`` judges it exactly."""
    k = min(p, t)
    if k > 14300 or k * (log10(p + t) - log10(k)) > 4301:
        raise ValueError("bound has more than 4300 digits")


def _print_report(report, fmt: str):
    record, upper = {"theorem": report.theorem}, report.upper
    if fmt == "text":  # only the text names the inputs and spells out a missing upper bound
        record["inputs"] = " ".join(f"{k}={v}" for k, v in report.inputs.items())
        upper = "none" if upper is None else upper
    record.update(observed=report.observed, lower=report.lower, upper=upper, satisfied=_bool_text(report.satisfied))
    _print_record(fmt, record)


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
    minimal = None if component_count is None else _bool_text(component_count == sig.rank)
    record = dict(rank=sig.rank, positive=sig.pos, negative=sig.neg, sos=_bool_text(sig.neg == 0), minimal=minimal)
    _print_record(args.format, record)
    return 0


def cmd_solve_h(args) -> int:
    f = parse_map_document(_read_json(args.input))
    h = solve_h(f, args.b, args.c, SOLVE_H_BLOCK_MAX)
    lines = [f"m: {len(h)}\n"]
    lines += [f"component {i}: scale {weight}, poly {poly}\n" for i, (weight, poly) in enumerate(h.weighted_components())]
    sys.stdout.write("".join(lines))
    if args.b == 1 and args.c == 1 and len(f):
        # thm2.4 bounds the rank of (1 + ||z||^2)(1 + ||f||^2) - 1 only, for p >= 1
        _print_report(check_affine_norm_product(f.n, len(f), len(h)), "text")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialize_map_json(h))
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
    # the product count, checked before any product is built
    products = _power_sum(len(f), args.t) if args.t >= 1 else 0
    if products > TENSOR_ROWS_MAX:
        raise ValueError(
            f"tensor-rank would eliminate the Gram matrix of {products} "
            f"products of components; the limit is {TENSOR_ROWS_MAX}"
        )
    rank = tensor_power_rank(f, args.t)
    record = dict(rank=rank, lower=None, upper=None, satisfied=None)
    if len(f):  # prop2.5 bounds a map of p >= 1 components
        report = check_power_rank(len(f), args.t, rank)
        record.update(lower=report.lower, upper=report.upper, satisfied=_bool_text(report.satisfied))
    _print_record(args.format, record)
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
    func = THEOREMS[args.theorem]
    code = func.__code__
    names = code.co_varnames[: code.co_argcount]
    values = {}
    for item in args.values:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {item!r}")
        if key in values:
            raise ValueError(f"key {key!r} is given more than once")
        try:
            values[key] = _int(raw)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"value for {key!r} must be an integer") from exc
    if set(values) != set(names):
        raise ValueError(
            f"theorem {args.theorem} needs exactly: " + " ".join(names)
        )
    if func is check_power_rank and min(values.values()) >= 1:
        _check_power_sum_printable(values["p"], values["t"])
    report = func(**values)
    _check_printable("bound", [report.lower, report.upper or 0])
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
    print(serialize_form_json(quotient), end="")
    return 0


def cmd_example1(args) -> int:
    try:
        lam = _as_fraction(args.lam)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational lambda {args.lam!r}") from exc
    r = r_lambda(lam)
    p_form = one_plus_norm(HoloMap.variables(1)) * r
    s_form = r * r
    r_diag, p_diag, s_diag = (
        [form.coefficient(Monomial._build((k,)), Monomial._build((k,))) for k in range(size)]
        for form, size in ((r, 5), (p_form, 6), (s_form, 9))
    )
    _check_printable("a printed value", [lam, *(x for v in r_diag + p_diag + s_diag for x in (v.re, v.im))])
    print(f"lambda: {lam}")
    print("R diagonal: " + " ".join(str(v) for v in r_diag))
    sig = inertia(r)
    print(f"R inertia: positive {sig.pos}, negative {sig.neg}")
    print(f"R sos: {_bool_text(sig.neg == 0)}")

    print("P = (1+|z|^2) R diagonal: " + " ".join(str(v) for v in p_diag))
    f_map = affine_split(p_form)
    print("P splits as 1 + ||f||^2: " + ("false" if f_map is None else f"true, m = {len(f_map)}"))

    print("S = R^2 diagonal: " + " ".join(str(v) for v in s_diag))
    g_map = affine_split(s_form)
    print("S splits as 1 + ||g||^2: " + ("false" if g_map is None else f"true, d = {len(g_map)}"))

    if f_map is not None and g_map is not None:
        holds = verify_identity(g_map, f_map, 2, 2, 1)
        print(f"identity (1+|z|^2)^2 (1+||g||^2) == (1+||f||^2)^2: {_bool_text(holds)}")
        print(f"m < d: {_bool_text(len(f_map) < len(g_map))}")
    return 0


def cmd_ensemble(args) -> int:
    # the config keys, and the dests of the flags, are EnsembleConfig's fields
    keys = EnsembleConfig._fields
    if args.config:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise DocumentError("ensemble config must be an object")
        _check_keys(doc, keys, "config")
        missing = [key for key in keys if key not in EnsembleConfig._field_defaults and key not in doc]
        if missing:
            raise DocumentError(f"missing config keys {missing}")
    else:
        doc = {key: getattr(args, key) for key in keys}
        missing = ["--" + key.replace("_", "-") for key, value in doc.items() if value is None]
        if missing:
            raise ValueError("missing " + " ".join(missing) + " (or use --config)")
    cfg = EnsembleConfig(**doc)
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
                report.upper,  # None is an empty cell
                _bool_text(not gap.satisfied),
            ]
        )
    with (
        open(args.output, "w", encoding="utf-8", newline="") if args.output else contextlib.nullcontext(sys.stdout)
    ) as stream:
        writer = _csv_writer(stream)
        writer.writerow(["n", "d", "degree", "m", "lower", "upper", "in_gap"])
        writer.writerows(rows)
    return 0


def _build_parsers():
    """The command line parser, and the parsers of its subcommands by name:
    the ``choices`` of its subparsers action, the parsers it dispatches to."""
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
    p.add_argument("--b", type=_int, default=1, help="exponent on 1+||z||^2")
    p.add_argument("--c", type=_int, default=1, help="exponent on 1+||f||^2")
    p.add_argument("--output", help="write h as a map document to this path")

    p = sub.add_parser("verify", help="check (1+||z||^2)^b (1+||f||^2)^c == (1+||h||^2)^a")
    p.add_argument("f", help="path to the map document for f")
    p.add_argument("h", help="path to the map document for h")
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--c", type=_int, required=True)

    p = sub.add_parser("tensor-rank", help="rank of (1+||f||^2)^t - 1")
    p.add_argument("--input", required=True, help="path to the map document for f")
    p.add_argument("--t", type=_int, required=True, help="power")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("gaps", help="impossible component-count intervals for n variables")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("bounds", help="evaluate one bound check, e.g. bounds thm2.4 n=2 p=1 r=4")
    p.add_argument("theorem", help="one of: " + " ".join(sorted(THEOREMS)))
    p.add_argument("values", nargs="*", help="key=value integer assignments")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("primes", help="power substitution exponents injective up to degree t")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--t", type=_int, required=True)

    p = sub.add_parser("divide", help="exact quotient of a bihomogeneous form by ||z||^2")
    p.add_argument("--input", required=True, help="path to a form JSON document")

    p = sub.add_parser("example1", help="walk the one-variable diagonal family at a given lambda")
    p.add_argument("--lambda", dest="lam", default="7", help="rational lambda, e.g. 7, 13/2 or -1/7")
    # argparse reads an argument as a negative number, not an option, only if
    # it matches this; its default takes neither -1/7 nor -1e2
    p._negative_number_matcher = re.compile(r"^-\.?\d")

    p = sub.add_parser("ensemble", help="random minimal maps; CSV of counts against bounds")
    p.add_argument("--config", help="path to a JSON config object")
    p.add_argument("--n", type=_int)
    p.add_argument("--d-max", dest="d_max", type=_int)
    p.add_argument("--degree-max", dest="degree_max", type=_int)
    p.add_argument("--count", type=_int)
    p.add_argument("--seed", type=_int)
    p.add_argument("--height", dest="coefficient_height", metavar="HEIGHT", type=_int, default=5, help="coefficient height bound")
    p.add_argument("--output", help="write the CSV here instead of stdout")

    # spelled out as argparse 3.10-3.12 wrap it at 80 columns, so that 3.13,
    # which puts the "..." on the line of the choices, prints the same bytes
    indent = "\n" + " " * len("usage: hermsos ")
    parser.usage = "%(prog)s [-h]" + indent + "{" + ",".join(sub.choices) + "}" + indent + "..."
    return parser, sub.choices


@functools.cache
def _shared_parser():
    """The parser ``main`` uses and its subcommand parsers by name, built on
    its first call.

    Parsing leaves a parser unchanged and fills a new namespace each time,
    so one parser serves every later call.
    """
    return _build_parsers()


def _parse(argv):
    """The namespace of argv, as ``parse_args`` of the full parser gives it.

    When argv[0] names a subcommand, only that subcommand's parser reads the
    rest, and a string it leaves is reported as the full parse reports it, by
    the top-level parser.  Any other argv (empty, -h, an unknown or
    abbreviated command) goes through the full parse.
    """
    parser, commands = _shared_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    # the handler is looked up now, not when the parser was built, so a
    # replaced ``cmd_*`` attribute is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    # stdout is held until the handler returns, so a refused command prints nothing
    held = io.StringIO()
    try:
        with contextlib.redirect_stdout(held):
            code = handler(args)
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
    sys.stdout.write(held.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
