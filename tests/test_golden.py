"""Byte identity of the command line against recorded outputs.

``tests/data/golden`` holds small map and form documents and, in
``cases.json``, one entry per command line: its arguments (``@name`` is a
file in that directory), its exit code, its exact stdout and, for
``solve-h --output``, the file it must write, byte for byte.  The outputs
were recorded before polynomials stored integer numerators, so any change
in how coefficients are parsed, reduced or printed shows here.
"""

import json
from pathlib import Path

import pytest

from hermsos.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_command_output_is_unchanged(case, tmp_path, capsys):
    argv = [str(GOLDEN / arg[1:]) if arg.startswith("@") else arg for arg in case["argv"]]
    written = tmp_path / "h.json"
    if "output" in case:
        argv += ["--output", str(written)]
    assert main(argv) == case["exit"]
    out, err = capsys.readouterr()
    assert out == case["stdout"]
    assert err == ""
    if "output" in case:
        assert written.read_bytes() == (GOLDEN / case["output"]).read_bytes()

