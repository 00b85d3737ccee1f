"""Byte identity of the command line against recorded outputs.

``tests/data/golden`` holds small map and form documents and, in
``cases.json``, one entry per command line: its arguments (``@name`` is a
file in that directory), its exit code, its exact stdout, its stderr if
it writes one, and, for ``solve-h --output``, the file it must write, byte
for byte.  The outputs
were recorded before polynomials stored integer numerators, so any change
in how coefficients are parsed, reduced or printed shows here.  The replay
is ``replay_golden.replay``, which ``python tests/replay_golden.py`` also
runs without pytest.
"""

import pytest

from replay_golden import CASES, replay


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_command_output_is_unchanged(case, tmp_path):
    assert replay(case, tmp_path) == []
