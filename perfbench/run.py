"""Closed-loop benchmark of the hermsos command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client in one thread calls ``hermsos.cli.main(argv)`` in-process on
documents generated from the seed, one job after another, captures stdout,
and grades every job with the oracles in ``workloads``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs a fixed number of jobs untraced and then the same jobs traced, however
long they take, and reports per-layer metrics (see ``tracer``).  Exits 2 without a result when the checkout has no
``src/hermsos``.

Times are reported at a nominal CPU speed.  The speed of a shared virtual
CPU drifts by up to 2x over seconds, so between jobs and set-ups the run
times ``reference_work``, a fixed piece of exact rational arithmetic that
imports nothing from hermsos, and scales each time by REFERENCE_S over the
median reference time around it.  The unscaled figures and the reference
time go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# A run goes on past --seconds until this many jobs are done, so that p90
# has ten jobs above it; out_bits_max covers exactly these first jobs, so it
# does not grow with the number of jobs a faster program fits in.
MIN_JOBS = 100
REFERENCE_S = 0.001  # times are reported as if reference_work() took this long
# jobs in each phase of a traced run, whole blocks of the job list
# (2 of 20 on roundtrip, 39 of 9 on forms); a phase takes about 10 s on a
# 2-core VM
TRACE_JOBS = {"corpus": 800, "roundtrip": 40, "forms": 351}

PER_LAYER = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)["per_layer"]


class SetupError(Exception):
    pass


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    return total


class Gauge:
    """Reference timings taken between the measured pieces of work."""

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        """Time reference_work() once; return the sample's index."""
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, index: int, width: int = 3) -> float:
        """REFERENCE_S over the median of the reference times near a sample."""
        return REFERENCE_S / statistics.median(self.samples[max(0, index - width):index + width + 1])


def import_cli(src: Path):
    """Import hermsos.cli afresh from src, so module-level work is timed."""
    for name in [m for m in sys.modules if m == "hermsos" or m.startswith("hermsos.")]:
        del sys.modules[name]
    cli = importlib.import_module("hermsos.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"hermsos was imported from {cli.__file__}, not from {src}")
    return cli


def write_documents(jobs, work: Path) -> None:
    """Write every job's files into work and point its argv at them."""
    work.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            (work / name).write_text(text, encoding="utf-8")
        job.argv = [[str(work / a[1:]) if a.startswith("@") else a for a in call]
                    for call in job.calls]


def set_up(workload: str, seed: int, src: Path, gauge: Gauge):
    """Import hermsos and generate the inputs, SETUP_REPEATS times; median seconds.

    Writing the documents is left out: on a shared disk it costs more, and
    varies more, than the import it would hide.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        index = gauge.sample()
        start = time.perf_counter()
        cli = import_cli(src)
        jobs = workloads.WORKLOADS[workload](seed)
        times.append((time.perf_counter() - start, index))
    gauge.sample()
    return cli, jobs, statistics.median(t * gauge.scale(i, 1) for t, i in times)


class Loop:
    """Runs jobs in order, timing each and grading it."""

    def __init__(self, cli, jobs, gauge: Gauge):
        self.cli = cli
        self.jobs = jobs
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.bits = 0
        self.raw = []  # unscaled times of the last run()

    def call(self, job):
        """Run one job's CLI calls; return its time and (exit code, stdout) pairs."""
        outputs = []
        begin = time.perf_counter()
        for argv in job.argv:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.cli.main(argv)
                except Exception:  # a traceback is a failed job, not a failed run
                    code = None
            outputs.append((code, out.getvalue()))
        return time.perf_counter() - begin, outputs

    def run(self, seconds: float = 0, jobs=None, before_job=None):
        """Run jobs in order; return their times, scaled.

        Given jobs, exactly that many run, however long they take, so a run
        covers the same jobs on a slow machine as on a fast one.  Otherwise
        jobs run for seconds and on until MIN_JOBS are done, but none starts
        after 5 * seconds.  Each time is scaled by the reference timed around
        that job, so a change of CPU speed within the run is corrected where
        it happens.
        """
        timed = []
        started = time.perf_counter()

        def more(index: int) -> bool:
            if jobs is not None:
                return index < jobs
            elapsed = time.perf_counter() - started
            return elapsed < seconds or index < MIN_JOBS and elapsed < 5 * seconds

        index = 0
        while more(index):
            job = self.jobs[index % len(self.jobs)]
            sample = self.gauge.sample()
            if before_job:
                before_job(index)
            spent, outputs = self.call(job)
            timed.append((spent, sample))
            self.attempted += 1
            if not job.check(job, outputs):
                self.failed += 1
            if self.attempted <= MIN_JOBS:
                self.bits = max(self.bits, workloads.printed_bits(job, outputs))
            index += 1
        self.gauge.sample()
        self.raw = [t for t, _ in timed]
        return [t * self.gauge.scale(i) for t, i in timed]


def decile_ms(times, k: int) -> float:
    if len(times) == 1:
        return times[0] * 1000
    return statistics.quantiles(times, n=10)[k - 1] * 1000


def end_to_end(loop: Loop, times, setup_s: float) -> dict:
    raw = loop.raw
    print(f"unscaled: job_p50_ms {decile_ms(raw, 5):.4g} job_p90_ms {decile_ms(raw, 9):.4g} "
          f"jobs_per_s {len(raw) / sum(raw):.4g}; reference median "
          f"{statistics.median(loop.gauge.samples) * 1000:.4g} ms; jobs {len(raw)}",
          file=sys.stderr)
    return {
        "job_p50_ms": (decile_ms(times, 5), "ms"),
        "job_p90_ms": (decile_ms(times, 9), "ms"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "out_bits_max": (loop.bits, "bits"),
    }


def per_layer(loop: Loop, workload: str, out_dir: Path) -> dict:
    jobs = TRACE_JOBS[workload]
    plain = loop.run(jobs=jobs)
    tracer = tracing.Tracer()
    first_sample = len(loop.gauge.samples)
    tracer.install()
    try:
        traced = loop.run(jobs=jobs, before_job=lambda i: setattr(tracer, "job", i))
    finally:
        tracer.restore()
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}.jsonl")
    for error in sorted(tracer.count_errors):
        print(f"counter failed, reported as 0: {error}", file=sys.stderr)
    reference = statistics.median(loop.gauge.samples[first_sample:])
    per_job_ms = REFERENCE_S / reference * 1000 / jobs
    totals = tracer.layer_totals()
    metrics = {}
    for metric in PER_LAYER:
        layer, key = metric["name"].rsplit(".", 1)
        if metric["name"] == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        elif key == "self_ms":
            value = totals[layer]["self_s"] * per_job_ms
        elif key.startswith("max_"):
            value = totals[layer][key]
        else:  # calls and summed counts, per job
            value = totals[layer][key] / jobs
        metrics[metric["name"]] = (value, metric["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hermsos" / "cli.py").is_file():
        print(f"error: {src}/hermsos not found; run from the root of a hermsos checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    gauge = Gauge()
    try:
        cli, jobs, setup_s = set_up(args.workload, args.seed, src, gauge)
        write_documents(jobs, work)
        loop = Loop(cli, jobs, gauge)
        if args.trace:
            metrics = per_layer(loop, args.workload, root / ".perfbench_out")
        else:
            metrics = end_to_end(loop, loop.run(args.seconds), setup_s)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
