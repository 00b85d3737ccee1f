import inspect
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import compare_outputs
import hermsos
from hermsos import (
    HermitianForm,
    Monomial,
    grams_equal,
    parse_form_document,
    parse_map_document,
    solve_h,
)
from hermsos import cli
from hermsos.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def pair_map(tmp_path):
    return write_json(
        tmp_path / "f.json",
        {"n": 2, "components": [[{"exp": [1, 0], "re": 1}], [{"exp": [0, 1], "re": 1}]]},
    )


def test_rank_text(pair_map, capsys):
    assert main(["rank", "--input", pair_map]) == 0
    out = capsys.readouterr().out
    assert out == "rank: 2\npositive: 2\nnegative: 0\nsos: true\nminimal: true\n"


def test_rank_csv_duplicate_components(tmp_path, capsys):
    doc = write_json(
        tmp_path / "dup.json",
        {"n": 1, "components": [[{"exp": [1], "re": 1}], [{"exp": [1], "re": 1}]]},
    )
    assert main(["rank", "--input", doc, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == "rank,positive,negative,sos,minimal\n1,1,0,true,false\n"


def test_rank_form_document(tmp_path, capsys):
    zero = {"re": 0, "im": 0}
    rows = []
    diag = [1, 4, -1, 4, 1]
    for i in range(5):
        rows.append([{"re": diag[j], "im": 0} if j == i else zero for j in range(5)])
    doc = write_json(
        tmp_path / "r7.json", {"n": 1, "basis": [[k] for k in range(5)], "gram": rows}
    )
    assert main(["rank", "--input", doc]) == 0
    out = capsys.readouterr().out
    assert "positive: 4\nnegative: 1\nsos: false\n" in out
    assert "minimal" not in out


def test_rank_empty_components(tmp_path, capsys):
    doc = write_json(tmp_path / "empty.json", {"n": 1, "components": []})
    assert main(["rank", "--input", doc]) == 0
    assert "rank: 0\n" in capsys.readouterr().out


def test_solve_h_output_document(pair_map, tmp_path, capsys):
    out_path = tmp_path / "h.json"
    assert main(["solve-h", "--input", pair_map, "--b", "1", "--c", "1",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("m: 5\n")
    assert "theorem: thm2.4" in out
    assert "satisfied: true" in out
    written = parse_map_document(json.loads(out_path.read_text()))
    f = parse_map_document(json.loads(Path(pair_map).read_text(encoding="utf-8")))
    assert grams_equal(written, solve_h(f, 1, 1))


def test_solve_h_exit_codes(tmp_path):
    const = write_json(
        tmp_path / "const.json",
        {"n": 1, "components": [[{"exp": [0], "re": 1}, {"exp": [1], "re": 1}]]},
    )
    assert main(["solve-h", "--input", const]) == 3
    dep = write_json(
        tmp_path / "dep.json",
        {"n": 1, "components": [[{"exp": [1], "re": 1}], [{"exp": [1], "re": 2}]]},
    )
    assert main(["solve-h", "--input", dep]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["solve-h", "--input", str(bad)]) == 2
    assert main(["solve-h", "--input", str(tmp_path / "missing.json")]) == 2


def test_verify_round_trip(pair_map, tmp_path, capsys):
    h_path = tmp_path / "h.json"
    assert main(["solve-h", "--input", pair_map, "--output", str(h_path)]) == 0
    capsys.readouterr()
    assert main(["verify", pair_map, str(h_path), "--a", "1", "--b", "1", "--c", "1"]) == 0
    assert capsys.readouterr().out == "identity holds\n"


def test_verify_mismatch(pair_map, tmp_path, capsys):
    wrong = write_json(
        tmp_path / "wrong.json",
        {"n": 2, "components": [[{"exp": [1, 0], "re": 2}], [{"exp": [0, 1], "re": 1}]]},
    )
    code = main(["verify", pair_map, wrong, "--a", "1", "--b", "1", "--c", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("identity fails; mismatched entries:\n")
    assert "z0" in out


def test_verify_gcd_precondition(pair_map):
    assert main(["verify", pair_map, pair_map, "--a", "2", "--b", "2", "--c", "2"]) == 2


def test_tensor_rank_formats(pair_map, capsys):
    assert main(["tensor-rank", "--input", pair_map, "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank: 5\n" in out
    assert main(["tensor-rank", "--input", pair_map, "--t", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "rank,lower,upper,satisfied\n5,4,5,true\n"


def test_a_map_with_no_components_gets_no_bound_report(tmp_path, capsys):
    # rank takes it (rank 0, minimal); thm2.4 and prop2.5 bound maps of p >= 1 components only
    empty = write_json(tmp_path / "empty.json", {"n": 1, "components": []})
    assert main(["rank", "--input", empty]) == 0
    assert capsys.readouterr() == ("rank: 0\npositive: 0\nnegative: 0\nsos: true\nminimal: true\n", "")
    assert main(["solve-h", "--input", empty]) == 0
    assert capsys.readouterr() == ("m: 1\ncomponent 0: scale 1, poly z0\n", "")
    assert main(["tensor-rank", "--input", empty, "--t", "2"]) == 0
    assert capsys.readouterr() == ("rank: 0\n", "")
    assert main(["tensor-rank", "--input", empty, "--t", "2", "--format", "csv"]) == 0
    assert capsys.readouterr() == ("rank,lower,upper,satisfied\n0,,,\n", "")


def test_tensor_rank_at_the_ceiling(tmp_path, capsys):
    # 15 independent linear forms z_i + z_{i+1} + 2 z_{i+2} (indices mod 15):
    # at t = 2 all 135 products are independent
    n = 15
    comps = [
        [
            {"exp": [int(j == (i + s) % n) for j in range(n)], "re": c}
            for s, c in ((0, 1), (1, 1), (2, 2))
        ]
        for i in range(n)
    ]
    doc = write_json(tmp_path / "f.json", {"n": n, "components": comps})
    assert cli.TENSOR_ROWS_MAX == 135
    assert main(["tensor-rank", "--input", doc, "--t", "2"]) == 0
    assert capsys.readouterr().out == "rank: 135\nlower: 30\nupper: 135\nsatisfied: true\n"


def test_tensor_rank_over_the_ceiling_is_refused_at_once(tmp_path, capsys):
    # one component at t = 136 is 136 products, one above the ceiling
    doc = write_json(tmp_path / "f.json", {"n": 1, "components": [[{"exp": [1], "re": 1}]]})
    start = time.perf_counter()
    assert main(["tensor-rank", "--input", doc, "--t", "136"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: tensor-rank would eliminate the Gram matrix of 136 products of components; "
        "the limit is 135\n"
    )
    assert main(["tensor-rank", "--input", doc, "--t", "135"]) == 0
    assert capsys.readouterr().out.startswith("rank: 135\n")


def test_solve_h_over_the_block_ceiling_is_refused_at_once(tmp_path, capsys):
    # (1 + ||z||^2)^40 (1 + |z0|^2) in 2 variables has a 901-monomial block, and
    # the closed bound C(42, 2) - 1 + 1 = 861 already refuses it
    doc = write_json(tmp_path / "z0.json", {"n": 2, "components": [[{"exp": [1, 0], "re": 1}]]})
    start = time.perf_counter()
    assert main(["solve-h", "--input", doc, "--b", "40", "--c", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: solving for h would eliminate a block of at least 861 basis monomials; the limit is 256\n"
    )
    assert main(["solve-h", "--input", doc, "--b", "10", "--c", "1"]) == 0
    assert capsys.readouterr().out.startswith("m: ")
    # at b = 21 the bound C(23, 2) - 1 + 1 = 253 is under the limit, and the
    # shifted basis counts the block exactly; b = 20 (251 monomials) is solved
    assert main(["solve-h", "--input", doc, "--b", "21", "--c", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: solving for h would eliminate a block of 274 basis monomials; the limit is 256\n"
    )
    assert main(["solve-h", "--input", doc, "--b", "20", "--c", "1"]) == 0
    assert capsys.readouterr().out.startswith("m: 251\n")


def test_solve_h_counts_a_large_block_without_expanding_it(tmp_path, capsys):
    # (1 + ||z||^2)^200 (1 + |z0|^2) in 2 variables has a 20501-monomial block, refused
    # on the bound C(202, 2) - 1 + 1 = 20301 before 1 + |z0|^2 is expanded or shifted
    doc = write_json(tmp_path / "z0.json", {"n": 2, "components": [[{"exp": [1, 0], "re": 1}]]})
    start = time.perf_counter()
    assert main(["solve-h", "--input", doc, "--b", "200", "--c", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: solving for h would eliminate a block of at least 20301 basis monomials; the limit is 256\n"
    )


@pytest.mark.parametrize(
    "option, value, least",
    [("--b", 10**6, 10**6 + 1), ("--b", 10**12, 10**12 + 1), ("--c", 10**6, 10**6 + 2)],
    ids=["b=10^6", "b=10^12", "c=10^6"],
)
def test_solve_h_refuses_a_huge_exponent_from_the_closed_bound(tmp_path, capsys, option, value, least):
    # a b over the limit is refused on b + c, as C(n + b, n) >= b + 1; a huge c
    # on C(3, 2) - 1 + c, before (1 + |z0|^2)^c is built
    doc = write_json(tmp_path / "z0.json", {"n": 2, "components": [[{"exp": [1, 0], "re": 1}]]})
    start = time.perf_counter()
    assert main(["solve-h", "--input", doc, option, str(value)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: solving for h would eliminate a block of at least {least} basis monomials; the limit is 256\n"


def test_solve_h_refuses_a_dependent_map_before_counting_its_block(tmp_path, capsys):
    # (z0, 2*z0) at b = 200 or 10^12 is over the block limit too, but minimality is checked first
    doc = write_json(
        tmp_path / "dep.json",
        {"n": 2, "components": [[{"exp": [1, 0], "re": 1}], [{"exp": [1, 0], "re": 2}]]},
    )
    for b in ("200", str(10**12)):
        assert main(["solve-h", "--input", doc, "--b", b, "--c", "1"]) == 4
        assert capsys.readouterr().err == "error: map components must be linearly independent\n"


def test_ensemble_is_not_limited_by_the_solve_h_block_ceiling(capsys):
    # the third sample, of degree 22 in 2 variables, has a 296-monomial block
    argv = ["ensemble", "--n", "2", "--d-max", "3", "--degree-max", "22", "--count", "3", "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "n,d,degree,m,lower,upper,in_gap\n2,1,22,5,4,5,false\n2,1,22,5,4,5,false\n2,3,22,11,5,,false\n"
    )


def test_gaps_output(capsys):
    assert main(["gaps", "--n", "5"]) == 0
    assert capsys.readouterr().out == "(0,10) (11,14)\n"
    assert main(["gaps", "--n", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "lower,upper\n0,10\n11,14\n"


def test_bounds_dispatch(capsys):
    assert main(["bounds", "thm2.4", "n=2", "p=1", "r=4"]) == 0
    out = capsys.readouterr().out
    assert "theorem: thm2.4" in out
    assert "lower: 4\nupper: 5\nsatisfied: true" in out
    assert main(["bounds", "thm1.1", "n=1", "d=3", "m=2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "theorem,observed,lower,upper,satisfied\nthm1.1,2,3,,false\n"


def test_bounds_errors(capsys):
    assert main(["bounds", "thm9.9", "n=1"]) == 2
    assert main(["bounds", "thm2.4", "n=2"]) == 2
    assert main(["bounds", "thm2.4", "n=2", "p=1", "r=x"]) == 2
    assert main(["bounds", "thm2.4", "n", "p=1", "r=4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["gaps", "--n", "\u0663"], "argument --n: invalid int value: '\u0663'\n"),
    (["primes", "--n", "2", "--t", "+3"], "argument --t: invalid int value: '+3'\n"),
    (["bounds", "thm2.4", "n=\u0662", "p=1", "r= 4"], "error: value for 'n' must be an integer\n"),
    (["bounds", "thm2.4", "n=2", "p=1", "r= 4"], "error: value for 'r' must be an integer\n"),
    (["bounds", "thm2.4", "n=2", "p=1", "r=1_0"], "error: value for 'r' must be an integer\n"),
], ids=["arabic-indic-digit", "plus-sign", "two-bad-values", "space", "underscore"])
def test_an_integer_is_ascii_digits_after_an_optional_minus(argv, message, capsys):
    # int() takes each of these, a JSON document none
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(message)


@pytest.mark.parametrize("values", [["n=2", "p=1", "r=4", "r=5"], ["r=4", "n=2", "r=4", "p=1"]])
def test_bounds_refuses_a_repeated_key(values, capsys):
    # a dict would keep the last value and drop the first without a word
    assert main(["bounds", "thm2.4", *values]) == 2
    assert capsys.readouterr() == ("", "error: key 'r' is given more than once\n")


@pytest.mark.parametrize("theorem", sorted(cli.THEOREMS))
def test_bounds_takes_the_parameters_of_its_check(theorem, capsys):
    # the key=value names are read off the check's code, not written out a second time
    names = list(inspect.signature(cli.THEOREMS[theorem]).parameters)
    assert main(["bounds", theorem]) == 2
    assert capsys.readouterr().err == f"error: theorem {theorem} needs exactly: {' '.join(names)}\n"
    assert main(["bounds", theorem, *(f"{name}=1" for name in names)]) == 0
    assert capsys.readouterr().out.startswith(f"theorem: {theorem}\n")


def test_bounds_refuses_an_unprintable_bound(capsys):
    # C(20000, 10000) - 1 has 6019 digits, past what str() of an int allows
    start = time.perf_counter()
    assert main(["bounds", "prop2.5", "p=10000", "t=10000", "r=5"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound has more than 4300 digits\n"


def test_bounds_refuses_a_huge_power_sum_before_building_it(capsys):
    # C(2000000, 1000000) - 1 has 602059 digits; building it takes tens of seconds
    start = time.perf_counter()
    assert main(["bounds", "prop2.5", "p=1000000", "t=1000000", "r=5"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound has more than 4300 digits\n"


@pytest.mark.parametrize("k, printed", [(7145, True), (7146, False)])
def test_bounds_prints_a_power_sum_of_4300_digits_and_no_more(capsys, k, printed):
    assert main(["bounds", "prop2.5", f"p={k}", f"t={k}", "r=5"]) == (0 if printed else 2)
    out = capsys.readouterr().out
    if printed:
        assert f"\nupper: {comb(2 * k, k) - 1}\n" in out
        assert len(str(comb(2 * k, k) - 1)) == 4300
    else:
        assert out == ""


@pytest.mark.parametrize("t", [1, 2, 7, 60, 1000, 7145])
def test_the_early_power_sum_refusal_spares_every_printable_bound(t):
    # the least p whose bound is unprintable, by bisection on the exact bound;
    # the estimate grows with p, so passing at p - 1 passes below it too
    limit, lo, hi = 10**4300, 1, 1
    while comb(hi + t, t) - 1 < limit:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if comb(mid + t, t) - 1 < limit else (lo, mid)
    for p, q in ((hi - 1, t), (t, hi - 1)):
        cli._check_power_sum_printable(p, q)
        assert len(str(comb(p + q, q) - 1)) <= 4300


def test_a_refused_solve_h_prints_nothing(tmp_path, capsys):
    # the answer is complete before the output file turns out to be unwritable
    f = Path(__file__).parent / "data" / "golden" / "f.json"
    target = tmp_path / "missing" / "h.json"
    assert main(["solve-h", "--input", str(f), "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def test_primes_output(capsys):
    assert main(["primes", "--n", "2", "--t", "2"]) == 0
    assert capsys.readouterr().out == "3 5\n"
    assert main(["primes", "--n", "3", "--t", "2"]) == 0
    assert capsys.readouterr().out == "11 39 65\n"


def test_primes_past_the_primality_bound_prints_nothing(capsys):
    assert main(["primes", "--n", "8", "--t", "2"]) == 2
    assert capsys.readouterr() == ("", "error: primality is decided only below 3317044064679887385961981\n")


def test_divide_quotient(tmp_path, capsys):
    # ||z||^2 * |z0|^2 = |z0^2|^2 + |z0 z1|^2
    doc = write_json(
        tmp_path / "s.json",
        {
            "n": 2,
            "basis": [[2, 0], [1, 1]],
            "gram": [
                [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
                [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
            ],
        },
    )
    assert main(["divide", "--input", doc]) == 0
    out = capsys.readouterr().out
    assert out.startswith("divisible: true\n")
    quotient = parse_form_document(json.loads(out.split("\n", 1)[1]))
    assert quotient.size == 1
    assert quotient.basis[0].exponents == (1, 0)
    assert quotient.gram[0][0].re == 1


def test_divide_not_divisible(tmp_path, capsys):
    doc = write_json(
        tmp_path / "bad.json",
        {"n": 2, "basis": [[2, 0]], "gram": [[{"re": 1, "im": 0}]]},
    )
    assert main(["divide", "--input", doc]) == 0
    assert capsys.readouterr().out == "divisible: false\n"


def test_divide_one_high_degree_entry_is_refused_at_once(tmp_path, capsys):
    # every unknown of degree 39 in six variables would be a million columns
    doc = write_json(
        tmp_path / "s.json", {"n": 6, "basis": [[40, 0, 0, 0, 0, 0]], "gram": [[1]]}
    )
    start = time.perf_counter()
    assert main(["divide", "--input", doc]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "divisible: false\n"


def test_divide_quotient_outside_the_reach_of_the_support(tmp_path, capsys):
    # |z0^3|^2 + |z1^3|^2 = ||z||^2 (|z0^2|^2 - |z0 z1|^2 + |z1^2|^2); the
    # middle entry is no z0^3 - e_j or z1^3 - e_j
    doc = write_json(
        tmp_path / "s.json", {"n": 2, "basis": [[3, 0], [0, 3]], "gram": [[1, 0], [0, 1]]}
    )
    assert main(["divide", "--input", doc]) == 0
    out = capsys.readouterr().out
    assert out.startswith("divisible: true\n")
    x2, xy, y2 = Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))
    expected = HermitianForm.from_entries(2, {(x2, x2): 1, (xy, xy): -1, (y2, y2): 1})
    assert parse_form_document(json.loads(out.split("\n", 1)[1])) == expected


def test_python_dash_m_runs_the_command_line(capsys):
    assert main(["gaps", "--n", "2"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(hermsos.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "hermsos", "gaps", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_example1_at_seven(capsys):
    assert main(["example1", "--lambda", "7"]) == 0
    out = capsys.readouterr().out
    assert "R diagonal: 1 4 -1 4 1" in out
    assert "S = R^2 diagonal: 1 8 14 0 35 0 14 8 1" in out
    assert "m = 5" in out
    assert "d = 6" in out
    assert "identity (1+|z|^2)^2 (1+||g||^2) == (1+||f||^2)^2: true" in out
    assert "m < d: true" in out


@pytest.mark.parametrize("lam", ["-1/7", "-1e2", "-6.5", "-3", "-1/0"])
def test_example1_reads_a_negative_lambda_after_a_space(lam, capsys):
    # argparse must not take a value such as -1/7 for an option
    code = main(["example1", "--lambda", lam])
    spaced = capsys.readouterr()
    assert main(["example1", f"--lambda={lam}"]) == code
    assert capsys.readouterr() == spaced
    assert code == (2 if lam == "-1/0" else 0)
    assert "expected one argument" not in spaced.err


def test_example1_refuses_an_unprintable_lambda(capsys):
    # S = R^2 has lambda^2 on its diagonal: 8001 digits at 1e4000, 4201 at 1e2100
    assert main(["example1", "--lambda", "1e4000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a printed value has more than 4300 digits\n"
    assert main(["example1", "--lambda", "1e2100"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) == 21218
    lam = 10**2100
    assert f" {lam**2 - 12 * lam + 70} " in out.split("S = R^2 diagonal:")[1]


def test_example1_past_threshold(capsys):
    assert main(["example1", "--lambda", "21/2"]) == 0
    out = capsys.readouterr().out
    assert "P splits as 1 + ||f||^2: false" in out
    assert "S splits as 1 + ||g||^2: false" in out
    assert "identity" not in out
    assert main(["example1", "--lambda", "15/2"]) == 0
    out = capsys.readouterr().out
    assert "P splits as 1 + ||f||^2: true, m = 5" in out
    assert "S splits as 1 + ||g||^2: false" in out


def test_ensemble_header_only(capsys):
    assert main(["ensemble", "--n", "2", "--d-max", "2", "--degree-max", "2",
                 "--count", "0", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "n,d,degree,m,lower,upper,in_gap\n"


def test_ensemble_reproducible_and_bounded(capsys):
    argv = ["ensemble", "--n", "2", "--d-max", "2", "--degree-max", "2",
            "--count", "12", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().split("\n")
    assert lines[0] == "n,d,degree,m,lower,upper,in_gap"
    assert len(lines) == 13
    for line in lines[1:]:
        n, d, degree, m, lower, upper, in_gap = line.split(",")
        assert int(lower) <= int(m)
        if upper:
            assert int(m) <= int(upper)
        assert in_gap == "false"


def test_ensemble_config_file(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"n": 2, "d_max": 1, "degree_max": 2, "count": 3, "seed": 9},
    )
    assert main(["ensemble", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,d,degree,m,lower,upper,in_gap\n")
    assert len(out.strip().split("\n")) == 4


def test_ensemble_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["ensemble", "--n", "2", "--d-max", "1", "--degree-max", "1",
                 "--count", "2", "--seed", "3", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("n,d,degree,m,lower,upper,in_gap\n")


def test_ensemble_refuses_more_components_than_monomials_at_once(capsys):
    # the first sample asks for 2 independent components of degree 1 in 1 variable
    start = time.perf_counter()
    assert main(["ensemble", "--n", "1", "--d-max", "5", "--degree-max", "1", "--count", "3", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: 2 independent components need 2 monomials; degree 1..1 has 1\n")


def test_ensemble_missing_flags(capsys):
    assert main(["ensemble", "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: missing --d-max --degree-max --count --seed (or use --config)\n"
    assert main(["ensemble", "--n", "2", "--d-max", "1", "--degree-max", "1", "--count", "1"]) == 2
    assert capsys.readouterr().err == "error: missing --seed (or use --config)\n"


def test_ensemble_bad_config(tmp_path, capsys):
    for doc, message in [
        ({"n": 2, "bogus": 1}, "unknown config keys ['bogus']"),
        ({"n": 2, "bogus": 1, "height": 5}, "unknown config keys ['bogus', 'height']"),
        ([2, 1, 1, 1, 1], "ensemble config must be an object"),
        ({"n": 2, "d_max": 1, "degree_max": 1, "count": 1, "seed": 1, "coefficient_height": 0},
         "coefficient_height must be a positive integer"),
    ]:
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["ensemble", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    cfg = write_json(tmp_path / "cfg.json", {"n": 2, "d_max": 1, "degree_max": 1, "count": 1})
    assert main(["ensemble", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "error: missing config keys ['seed']\n")


def test_ensemble_config_names_every_missing_key(tmp_path, capsys):
    # in the order of the parameters, as the config spells them; the height has a default
    for doc, missing in [
        ({"n": 2, "count": 1}, ["d_max", "degree_max", "seed"]),
        ({}, ["n", "d_max", "degree_max", "count", "seed"]),
    ]:
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["ensemble", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", f"error: missing config keys {missing}\n")


def test_ensemble_config_refuses_booleans(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"n": True, "d_max": True, "degree_max": 1, "count": 1, "seed": False})
    assert main(["ensemble", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "error: n must be a positive integer\n")
    good = {"n": 2, "d_max": 1, "degree_max": 1, "count": 1, "seed": 1, "coefficient_height": 5}
    messages = {
        "n": "n must be a positive integer",
        "d_max": "d_max must be a positive integer",
        "degree_max": "degree_max must be a positive integer",
        "count": "count must be a non-negative integer",
        "seed": "seed must fit in an unsigned 64-bit integer",
        "coefficient_height": "coefficient_height must be a positive integer",
    }
    for key, message in messages.items():
        # false would be a valid count and seed as 0, true as 1 everywhere
        for flag in (True, False):
            cfg = write_json(tmp_path / "cfg.json", {**good, key: flag})
            assert main(["ensemble", "--config", cfg]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_ensemble_height_flag_is_the_coefficient_height_key(tmp_path, capsys):
    flags = ["--n", "2", "--d-max", "2", "--degree-max", "2", "--count", "2", "--seed", "3"]
    assert main(["ensemble", *flags, "--height", "9"]) == 0
    by_flags = capsys.readouterr().out
    cfg = write_json(tmp_path / "cfg.json", {"n": 2, "d_max": 2, "degree_max": 2, "count": 2, "seed": 3,
                                            "coefficient_height": 9})
    assert main(["ensemble", "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flags
    assert main(["ensemble", *flags, "--height", "0"]) == 2
    assert capsys.readouterr() == ("", "error: coefficient_height must be a positive integer\n")


def test_argparse_exits(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["rank"]) == 2
    capsys.readouterr()


# solve-h stdout pinned byte for byte; the maps mix complex and rational
# coefficients so every printed scale and coefficient is a nontrivial quotient
DENSE_MAP = {"n": 2, "components": [
    [{"exp": [1, 0], "re": 1}, {"exp": [0, 1], "re": 2, "im": -1}],
    [{"exp": [1, 1], "re": -3}, {"exp": [2, 0], "im": 1}],
]}
RATIONAL_MAP = {"n": 2, "components": [
    [{"exp": [1, 0], "re": "1/2"}, {"exp": [0, 1], "im": "-2/3"}],
    [{"exp": [0, 2], "re": "3/4", "im": "1/5"}],
]}
THM24_P2_R7 = (
    "theorem: thm2.4\ninputs: n=2 p=2 r=7\nobserved: 7\nlower: 5\nupper: 8\n"
    "satisfied: true\n"
)
GOLDEN_SOLVE_H = [
    (DENSE_MAP, "1",
     "m: 7\n"
     "component 0: scale 2, poly z0 + (1-1/2i)*z1\n"
     "component 1: scale 7/2, poly z1\n"
     "component 2: scale 2, poly z0^2 + (1+1i)*z0*z1\n"
     "component 3: scale 11, poly z0*z1 + (2/11-1/11i)*z1^2\n"
     "component 4: scale 50/11, poly z1^2\n"
     "component 5: scale 1, poly z0^3 + 3i*z0^2*z1\n"
     "component 6: scale 1, poly z0^2*z1 + 3i*z0*z1^2\n" + THM24_P2_R7),
    (DENSE_MAP, "2",
     "m: 12\n"
     "component 0: scale 3, poly z0 + (2/3-1/3i)*z1\n"
     "component 1: scale 16/3, poly z1\n"
     "component 2: scale 4, poly z0^2 + (1+1/4i)*z0*z1\n"
     "component 3: scale 75/4, poly z0*z1 + (16/75-8/75i)*z1^2\n"
     "component 4: scale 149/15, poly z1^2\n"
     "component 5: scale 3, poly z0^3 + (2/3+5/3i)*z0^2*z1\n"
     "component 6: scale 52/3, poly z0^2*z1 + (3/13+3/13i)*z0*z1^2\n"
     "component 7: scale 353/13, poly z0*z1^2 + (26/353-13/353i)*z1^3\n"
     "component 8: scale 1700/353, poly z1^3\n"
     "component 9: scale 1, poly z0^4 + 3i*z0^3*z1\n"
     "component 10: scale 2, poly z0^3*z1 + 3i*z0^2*z1^2\n"
     "component 11: scale 1, poly z0^2*z1^2 + 3i*z0*z1^3\n"),
    (RATIONAL_MAP, "1",
     "m: 7\n"
     "component 0: scale 5/4, poly z0 - 4/15i*z1\n"
     "component 1: scale 61/45, poly z1\n"
     "component 2: scale 1/4, poly z0^2 - 4/3i*z0*z1\n"
     "component 3: scale 1/4, poly z0*z1 - 4/3i*z1^2\n"
     "component 4: scale 241/400, poly z1^2\n"
     "component 5: scale 241/400, poly z0*z1^2\n"
     "component 6: scale 241/400, poly z1^3\n" + THM24_P2_R7),
]


@pytest.mark.parametrize("doc,b,expected", GOLDEN_SOLVE_H, ids=["dense-b1", "dense-b2", "rational-b1"])
def test_solve_h_golden_stdout(tmp_path, capsys, doc, b, expected):
    path = write_json(tmp_path / "f.json", doc)
    assert main(["solve-h", "--input", path, "--b", b]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("flag,m", [("--b", 10), ("--c", 8)])
def test_solve_h_reports_thm24_only_at_b_c_one(tmp_path, capsys, flag, m):
    # thm2.4 covers (1+||z||^2)(1+||f||^2) only; its band 4..5 would
    # wrongly reject these correct counts
    path = write_json(tmp_path / "f.json", {"n": 2, "components": [[{"exp": [1, 1], "re": 1}]]})
    assert main(["solve-h", "--input", path, flag, "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"m: {m}\n")
    assert "theorem" not in out
    assert "satisfied" not in out


def test_zero_denominator_is_bad_input(capsys):
    assert main(["example1", "--lambda", "1/0"]) == 2
    assert "bad rational lambda '1/0'" in capsys.readouterr().err


def test_huge_decimal_exponent_is_bad_input(tmp_path, capsys):
    # a 59-byte document; Fraction alone would take seconds on this literal
    doc = write_json(
        tmp_path / "f.json", {"n": 1, "components": [[{"exp": [1], "re": "1e3000000"}]]}
    )
    start = time.perf_counter()
    assert main(["rank", "--input", doc]) == 2
    assert "bad rational literal '1e3000000'" in capsys.readouterr().err
    assert main(["example1", "--lambda", "1e3000000"]) == 2
    assert "bad rational lambda '1e3000000'" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command,target", [
    (["solve-h", "--input", "@"], "solve_h"),
    (["tensor-rank", "--input", "@", "--t", "2"], "tensor_power_rank"),
])
def test_internal_invariant_exit_code(pair_map, monkeypatch, capsys, command, target):
    def broken(*args):
        raise ArithmeticError("inexact division in fraction-free elimination")

    monkeypatch.setattr(f"hermsos.cli.{target}", broken)
    argv = [pair_map if a == "@" else a for a in command]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err == "error: internal invariant violated: inexact division in fraction-free elimination\n"


# main builds its parser once per process and reuses it

def fresh_call(argv, capsys):
    """(exit code, stdout, stderr) of a call that builds a new parser."""
    cli._shared_parser.cache_clear()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_calls_match_a_first_call(pair_map, tmp_path, capsys):
    dense = write_json(tmp_path / "dense.json", DENSE_MAP)
    solve_b2 = ["solve-h", "--input", dense, "--b", "2"]
    solve = ["solve-h", "--input", dense]
    rank_csv = ["rank", "--input", pair_map, "--format", "csv"]
    rank = ["rank", "--input", pair_map]
    firsts = {tuple(argv): fresh_call(argv, capsys) for argv in (solve_b2, solve, rank_csv, rank)}
    assert firsts[tuple(solve)][1] == GOLDEN_SOLVE_H[0][2]  # the thm2.4 report is there
    assert firsts[tuple(rank)][1] == "rank: 2\npositive: 2\nnegative: 0\nsos: true\nminimal: true\n"
    cli._shared_parser.cache_clear()
    for argv in (solve_b2, solve, rank_csv, rank, solve, solve_b2, rank, rank_csv):
        code = main(argv)
        assert (code, *capsys.readouterr()) == firsts[tuple(argv)]


def test_usage_errors_and_help_after_a_successful_call(pair_map, capsys):
    code, _, usage = fresh_call(["rank"], capsys)
    assert code == 2
    assert main(["rank", "--input", pair_map]) == 0
    capsys.readouterr()
    assert main(["rank"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == usage
    assert err.startswith("usage: hermsos rank")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: hermsos")


def test_a_handler_replaced_after_the_first_call_runs(pair_map, monkeypatch, capsys):
    assert main(["rank", "--input", pair_map]) == 0
    capsys.readouterr()
    seen = []

    def replacement(args):
        seen.append(args.input)
        return 7

    monkeypatch.setattr("hermsos.cli.cmd_rank", replacement)
    assert main(["rank", "--input", pair_map]) == 7
    assert seen == [pair_map]
    monkeypatch.undo()
    assert main(["rank", "--input", pair_map]) == 0
    assert capsys.readouterr().out.startswith("rank: 2\n")


# the command lines compare_outputs runs against a base commit: usage output,
# help and refusals, none of which a benchmark job reaches
@pytest.mark.parametrize("call", compare_outputs.ARGV, ids=lambda call: " ".join(call) or "no-arguments")
def test_main_parses_as_the_full_top_level_parse(call, monkeypatch, capsys):
    argv = [str(compare_outputs.GOLDEN / arg[1:]) if arg.startswith("@") else arg for arg in call]
    code = main(argv)
    dispatched = (code, *capsys.readouterr())
    # the reference: the top-level parser reads the whole argv, then the same handler runs
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._shared_parser()[0].parse_args(argv))
    assert (main(argv), *capsys.readouterr()) == dispatched


def test_a_subcommand_is_parsed_by_its_own_parser_alone(pair_map, monkeypatch, capsys):
    parser, commands = cli._shared_parser()
    assert set(commands) == set(compare_outputs.COMMANDS)

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand's argv")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert main(["rank", "--input", pair_map]) == 0
    assert capsys.readouterr().out.startswith("rank: 2\n")
    # a leftover string is reported by the top-level parser, as parse_args reports it
    assert main(["gaps", "--n", "2", "--frobnicate"]) == 2
    assert capsys.readouterr() == ("", parser.format_usage() + "hermsos: error: unrecognized arguments: --frobnicate\n")


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hermsos", "gaps", "--n", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "(0,4)\n"
    monkeypatch.setattr(sys, "argv", ["hermsos"])
    assert main() == 2
    assert capsys.readouterr().err.startswith("usage: hermsos")


def test_import_builds_no_parser_and_calls_build_one(monkeypatch, capsys):
    import argparse
    import importlib

    progs = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # a fresh module; the one other tests hold comes back at teardown
    monkeypatch.setattr(hermsos, "cli", cli)
    monkeypatch.delitem(sys.modules, "hermsos.cli")
    fresh = importlib.import_module("hermsos.cli")
    assert fresh is not cli
    assert progs == []
    for _ in range(20):
        assert fresh.main(["gaps", "--n", "2"]) == 0
    assert progs.count("hermsos") == 1
    assert capsys.readouterr().out == "(0,4)\n" * 20
