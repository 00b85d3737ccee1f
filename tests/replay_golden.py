"""Replay the recorded command lines of ``tests/data/golden/cases.json``.

Standard library only, so it runs on an interpreter without pytest:

    python tests/replay_golden.py

prints one line per difference and exits 1 if there is any, else prints
the number of cases and exits 0.  ``tests/test_golden.py`` runs the same
``replay`` once per case.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import List

from cli_runner import run

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def replay(case: dict, workdir: Path) -> List[str]:
    """Run one case through ``hermsos.cli.main`` in-process; the differences
    from the recorded exit code, stdout, stderr (empty unless the case records
    one) and written file, as text, empty if there is none."""
    written = workdir / "h.json"
    argv = case["argv"] + (["--output", str(written)] if "output" in case else [])
    code, out, err = run(argv, GOLDEN)
    diffs = []
    if code != case["exit"]:
        diffs.append(f"exit {code}, recorded {case['exit']}")
    if out != case["stdout"]:
        diffs.append(f"stdout {out!r}, recorded {case['stdout']!r}")
    if err != case.get("stderr", ""):
        diffs.append(f"stderr {err!r}, recorded {case.get('stderr', '')!r}")
    if "output" in case and (not written.is_file() or written.read_bytes() != (GOLDEN / case["output"]).read_bytes()):
        diffs.append(f"{written.name} differs from {case['output']}")
    return diffs


def main() -> int:
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            diffs = replay(case, Path(tmp))
        for diff in diffs:
            print(f"{case['name']}: {diff}")
        failed += bool(diffs)
    print(f"{len(CASES) - failed}/{len(CASES)} golden cases replay unchanged")
    return 1 if failed else 0


if __name__ == "__main__":
    # the package is imported from this checkout's src/, not an installed copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
