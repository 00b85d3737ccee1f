"""Check that two checkouts give the same outputs on every benchmark job.

Standard library only:

    python tests/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the checkout this script is in.  The jobs are those
of ``perfbench/workloads.py`` in this checkout, every workload at seeds 1
and 7, so both sides run the same documents.  Each checkout runs in its own
subprocess, which imports ``hermsos`` from that checkout's ``src/``, runs
every job's calls through ``hermsos.cli.main`` in a fresh temporary
directory, and prints one digest per job of its exit codes, stdout, stderr
(with the directory masked) and the files it wrote.  The script prints one
line per job that differs, naming the parts that differ, then the count,
and exits 1 if any job differs, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parents[1]
WORKLOADS = ("corpus", "roundtrip", "forms")
SEEDS = (1, 7)
PARTS = ("exit", "stdout", "stderr", "files")


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def job_digests(workload: str, seed: int) -> List[dict]:
    """Run every job of a workload through the ``hermsos.cli`` on sys.path; one
    dict per job: its kind and a digest of each of PARTS."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads
    from hermsos.cli import main

    records = []
    for job in workloads.WORKLOADS[workload](seed):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name, text in job.files.items():
                (work / name).write_text(text, encoding="utf-8")
            outcome = {"exit": [], "stdout": [], "stderr": []}
            for call in job.calls:
                argv = [str(work / arg[1:]) if arg.startswith("@") else arg for arg in call]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except Exception as exc:  # a traceback is an outcome to compare, not a stop
                        code = f"raised {type(exc).__name__}"
                outcome["exit"].append(code)
                outcome["stdout"].append(out.getvalue().replace(tmp, "<work>"))
                outcome["stderr"].append(err.getvalue().replace(tmp, "<work>"))
            outcome["files"] = sorted((path.name, path.read_bytes()) for path in work.iterdir())
        records.append({"kind": job.kind, **{part: _digest(outcome[part]) for part in PARTS}})
    return records


def run_checkout(root: Path, workload: str, seed: int) -> List[dict]:
    """``job_digests`` in a subprocess with root's ``src/`` first on the path."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        f"sys.path.insert(0, {str(HERE / 'tests')!r})\n"
        "import compare_outputs\n"
        f"print(json.dumps(compare_outputs.job_digests({workload!r}, {seed!r})))\n"
    )
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: Path, change: Path, runs: List[Tuple[str, int]]) -> Tuple[int, List[str]]:
    """The number of jobs compared, and one line per job whose outputs differ."""
    count, lines = 0, []
    for workload, seed in runs:
        before, after = run_checkout(parent, workload, seed), run_checkout(change, workload, seed)
        if len(before) != len(after):
            raise SystemExit(f"{workload} seed {seed}: {len(before)} jobs against {len(after)}")
        count += len(before)
        for i, (old, new) in enumerate(zip(before, after)):
            parts = [part for part in PARTS if old[part] != new[part]]
            if parts:
                lines.append(f"{workload} seed {seed} job {i} ({old['kind']}): {', '.join(parts)} differ")
    return count, lines


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tests/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]", file=sys.stderr)
        return 2
    roots = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1] if len(argv) == 2 else HERE).resolve()}
    for side, root in roots.items():
        if not (root / "src" / "hermsos" / "cli.py").is_file():
            print(f"{side} checkout {root} has no src/hermsos/cli.py", file=sys.stderr)
            return 2
    count, lines = differences(roots["parent"], roots["change"], [(w, s) for w in WORKLOADS for s in SEEDS])
    for line in lines:
        print(line)
    print(f"{len(lines)} of {count} jobs differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
