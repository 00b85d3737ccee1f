"""Fast checks of the benchmark itself: inputs, oracles, tracing, verdicts."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hermsos import cli  # noqa: E402


def first_of_each_kind(jobs):
    seen = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def run_job(job):
    """Run one prepared job; return its (exit code, stdout) pairs."""
    return run.Loop(cli, [job], run.Gauge()).call(job)[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_documents(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(3), build(3), build(4)
    assert [j.files for j in first] == [j.files for j in again]
    assert [j.calls for j in first] == [j.calls for j in again]
    assert [j.files for j in first] != [j.files for j in other]


def test_corpus_is_every_small_monomial_map():
    maps = workloads.monomial_maps()
    assert len(maps) == len(set(maps)) == 1207


def test_rank_mod_p():
    x, y = (1, 0), (0, 1)
    assert workloads.rank_mod_p([{x: 2, y: 3}, {x: 4, y: 6}]) == 1
    assert workloads.rank_mod_p([{x: 1}, {y: 1}, {x: 1, y: -1}]) == 2
    assert workloads.rank_mod_p([{x: 0}]) == 0


def test_rational_bits_skips_indices_and_exponents():
    assert workloads.rational_bits("scale 2, poly z12^5*z3") == 2
    assert workloads.rational_bits("scale 1/1024, poly -3*z0 + (5+7/9i)*z1") == 11


def test_printed_bits_of_a_quotient_count_only_its_entries():
    job = workloads.Job("divide", [["divide", "--input", "@q.json"]], {}, None)
    doc = {"n": 3, "basis": [[7, 0, 0], [0, 7, 0]],
           "gram": [[{"re": 1, "im": 0}, {"re": 0, "im": 1}],
                    [{"re": 0, "im": -1}, {"re": 1, "im": 0}]]}
    assert workloads.printed_bits(job, [(0, "divisible: true\n" + json.dumps(doc, indent=2))]) == 1
    doc["gram"][0][1]["im"] = "-5/16"
    assert workloads.printed_bits(job, [(0, "divisible: true\n" + json.dumps(doc))]) == 5
    assert workloads.printed_bits(job, [(0, "divisible: false\n")]) == 0


def _plant(outputs, index, old, new):
    planted = list(outputs)
    code, out = planted[index]
    assert old in out
    planted[index] = (code, out.replace(old, new, 1))
    return planted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracles_accept_the_program_and_reject_planted_errors(name, tmp_path):
    jobs = first_of_each_kind(workloads.WORKLOADS[name](5))
    run.write_documents(jobs, tmp_path)
    for job in jobs:
        outputs = run_job(job)
        assert job.check(job, outputs), job.kind
        first = outputs[0][1].splitlines()[0]
        if first.startswith(("m: ", "rank: ")):
            key, value = first.split(": ")
            wrong = _plant(outputs, 0, first, f"{key}: {int(value) + 1}")
        elif first == "divisible: true":
            wrong = [(0, "divisible: false\n")]
        elif first == "divisible: false":
            wrong = [(0, "divisible: true\n{\"n\": 3, \"basis\": [], \"gram\": []}\n")]
        elif first == "identity holds":
            wrong = [(1, "identity fails; mismatched entries:\n")]
        else:
            wrong = [(0, "identity holds\n")]
        assert not job.check(job, wrong), job.kind
        if len(outputs) == 2:  # roundtrip: a flipped verify verdict must fail too
            flipped = [outputs[0], (1, "identity fails; mismatched entries:\n")]
            assert not job.check(job, flipped)
        assert not job.check(job, [(None, "")] * len(outputs)), job.kind


def test_trace_reports_every_layer_and_restores_originals(tmp_path, monkeypatch):
    jobs = workloads.forms(2)[:9]
    monkeypatch.setitem(run.TRACE_JOBS, "forms", len(jobs))
    run.write_documents(jobs, tmp_path / "work")
    originals = {
        "main": cli.main,
        "inertia": sys.modules["hermsos.rankdecomp"].inertia,
        "cli_inertia_ref": sys.modules["hermsos.isometry"].inertia,
        "form_init": sys.modules["hermsos.polyalg"].HermitianForm.__init__,
    }
    loop = run.Loop(cli, jobs, run.Gauge())
    metrics = run.per_layer(loop, "forms", tmp_path)
    assert (loop.attempted, loop.failed) == (2 * len(jobs), 0)
    assert tracer.leaked_wrappers() == []
    assert cli.main is originals["main"]
    assert sys.modules["hermsos.rankdecomp"].inertia is originals["inertia"]
    assert sys.modules["hermsos.isometry"].inertia is originals["cli_inertia_ref"]
    assert sys.modules["hermsos.polyalg"].HermitianForm.__init__ is originals["form_init"]
    per_layer = {m["name"] for m in compare.BENCHMARK["per_layer"]}
    assert set(metrics) == per_layer
    assert metrics["rankdecomp.inertia.calls"][0] > 0
    assert metrics["isometry.divide_by_norm.self_ms"][0] > 0
    assert (tmp_path / "spans-forms.jsonl").stat().st_size > 0


def test_traced_job_count_does_not_depend_on_speed(tmp_path, monkeypatch):
    jobs = workloads.forms(3)[:9]
    monkeypatch.setitem(run.TRACE_JOBS, "forms", len(jobs))
    run.write_documents(jobs, tmp_path / "work")
    clock = itertools.count(step=1000.0)  # every reading is 1000 s after the last
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    loop = run.Loop(cli, jobs, run.Gauge())
    run.per_layer(loop, "forms", tmp_path)
    assert loop.attempted == 2 * len(jobs)
    assert tracer.leaked_wrappers() == []


def test_trace_restores_originals_after_an_error():
    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(ValueError):
            sys.modules["hermsos.bounds"].check_power_rank(0, 1, 1)
        assert t.spans and t.spans[-1][2] == "bounds.check"
    finally:
        t.restore()
    assert tracer.leaked_wrappers() == []


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_verdicts():
    parent = [100, 101, 102, 99, 100, 101, 98, 100, 102, 99]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, False) == "better"
    assert compare.verdict(parent, faster, "lower", 0.1, True) == "same"
    assert compare.verdict(parent, slower, "lower", 0.1, False) == "worse"
    assert compare.verdict(parent, slower, "higher", 0.1, False) == "better"
    assert compare.verdict(parent, list(parent), "lower", 0.1, False) == "same"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1, False) == "unresolved"
