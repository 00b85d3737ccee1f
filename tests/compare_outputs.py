"""Check that two checkouts give the same outputs on every benchmark job.

Standard library only:

    python tests/compare_outputs.py [--change-python PATH] PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the checkout this script is in.  The parent side
runs under the interpreter that runs this script, the change side under
PATH if given, else the same one: with the same checkout on both sides,
``--change-python`` compares two interpreters.  The jobs are those
of ``perfbench/workloads.py`` in this checkout, every workload at seeds 1
and 7, so both sides run the same documents.  Each checkout runs in its own
subprocess, which imports ``hermsos`` from that checkout's ``src/``, runs
every job's calls through ``hermsos.cli.main`` in a fresh temporary
directory, and prints one digest per job of its exit codes, stdout, stderr
(with the directory masked) and the files it wrote.  Every job succeeds, so
the command lines of ``ARGV``, the usage output, help and refusals of the
CLI, are run as well, on the golden documents of this checkout, and their
exit codes, stdout and stderr compared the same way.  The script prints one
line per job or command line that differs, naming the parts that differ,
then the two counts, and exits 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

from cli_runner import run

HERE = Path(__file__).resolve().parents[1]
GOLDEN = HERE / "tests" / "data" / "golden"
WORKLOADS = ("corpus", "roundtrip", "forms")
SEEDS = (1, 7)
PARTS = ("exit", "stdout", "stderr", "files")
ARGV_PARTS = PARTS[:3]
COMMANDS = ("rank", "solve-h", "verify", "tensor-rank", "gaps", "bounds", "primes", "divide", "example1", "ensemble")
# command lines that stop in the parser or before any work; "@name" is the
# golden document of that name
ARGV = [
    [],
    ["--help"],
    ["-h"],
    ["frobnicate"],  # an unknown command
    ["solve"],  # an abbreviated one
    *([command, "-h"] for command in COMMANDS),
    ["solve-h"],  # a missing required option
    ["solve-h", "--input", "@f.json", "--b", "two"],  # a bad int
    ["rank", "--input", "@form.json", "extra"],  # an extra positional
    ["gaps", "--n", "2", "--frobnicate"],  # an unknown option after a subcommand
    ["gaps", "--n", "2", "--", "3"],  # an argument after --
    ["bounds", "thm2.4", "--", "n=2", "p=1", "r=4"],
    ["example1", "--lambda", "-1/7"],
]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def job_digests(workload: str, seed: int) -> List[dict]:
    """Run every job of a workload through the ``hermsos.cli`` on sys.path; one
    dict per job: its kind and a digest of each of PARTS."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    records = []
    for job in workloads.WORKLOADS[workload](seed):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name, text in job.files.items():
                (work / name).write_text(text, encoding="utf-8")
            outcome = {"exit": [], "stdout": [], "stderr": []}
            for call in job.calls:
                code, out, err = run(call, work)
                outcome["exit"].append(code)
                outcome["stdout"].append(out.replace(tmp, "<work>"))
                outcome["stderr"].append(err.replace(tmp, "<work>"))
            outcome["files"] = sorted((path.name, path.read_bytes()) for path in work.iterdir())
        records.append({"kind": job.kind, **{part: _digest(outcome[part]) for part in PARTS}})
    return records


def argv_digests() -> List[dict]:
    """Run each command line of ARGV through the ``hermsos.cli`` on sys.path;
    one dict per command line: a digest of its exit code, stdout and stderr."""
    return [{part: _digest(value) for part, value in zip(ARGV_PARTS, run(call, GOLDEN))} for call in ARGV]


def run_checkout(root: Path, call: str, python: str = sys.executable) -> List[dict]:
    """The digests ``compare_outputs.<call>`` prints in a subprocess of the
    interpreter python with root's ``src/`` first on the path."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        f"sys.path.insert(0, {str(HERE / 'tests')!r})\n"
        "import compare_outputs\n"
        f"print(json.dumps(compare_outputs.{call}))\n"
    )
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([python, "-c", code], cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {call} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(
    parent: Path, change: Path, runs: List[Tuple[str, int]], change_python: str = sys.executable
) -> Tuple[int, List[str]]:
    """The number of jobs compared, and one line per job whose outputs differ;
    the change side runs under change_python."""
    count, lines = 0, []
    for workload, seed in runs:
        call = f"job_digests({workload!r}, {seed!r})"
        before, after = run_checkout(parent, call), run_checkout(change, call, change_python)
        if len(before) != len(after):
            raise SystemExit(f"{workload} seed {seed}: {len(before)} jobs against {len(after)}")
        count += len(before)
        for i, (old, new) in enumerate(zip(before, after)):
            parts = [part for part in PARTS if old[part] != new[part]]
            if parts:
                lines.append(f"{workload} seed {seed} job {i} ({old['kind']}): {', '.join(parts)} differ")
    return count, lines


def argv_differences(parent: Path, change: Path, change_python: str = sys.executable) -> List[str]:
    """One line per command line of ARGV whose outputs differ; the change
    side runs under change_python."""
    before = run_checkout(parent, "argv_digests()")
    after = run_checkout(change, "argv_digests()", change_python)
    lines = []
    for call, old, new in zip(ARGV, before, after):
        parts = [part for part in ARGV_PARTS if old[part] != new[part]]
        if parts:
            lines.append(f"hermsos {' '.join(call)}: {', '.join(parts)} differ")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/compare_outputs.py")
    parser.add_argument("--change-python", default=sys.executable, metavar="PATH", help="interpreter of the change side")
    parser.add_argument("parent_root", metavar="PARENT_ROOT")
    parser.add_argument("change_root", metavar="CHANGE_ROOT", nargs="?", default=str(HERE))
    args = parser.parse_args(argv)
    roots = {"parent": Path(args.parent_root).resolve(), "change": Path(args.change_root).resolve()}
    for side, root in roots.items():
        if not (root / "src" / "hermsos" / "cli.py").is_file():
            print(f"{side} checkout {root} has no src/hermsos/cli.py", file=sys.stderr)
            return 2
    runs = [(w, s) for w in WORKLOADS for s in SEEDS]
    count, lines = differences(roots["parent"], roots["change"], runs, args.change_python)
    argv_lines = argv_differences(roots["parent"], roots["change"], args.change_python)
    for line in lines + argv_lines:
        print(line)
    print(f"{len(lines)} of {count} jobs differ")
    print(f"{len(argv_lines)} of {len(ARGV)} command lines differ")
    return 1 if lines or argv_lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
