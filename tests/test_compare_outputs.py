"""``compare_outputs`` reports exactly the jobs and command lines whose outputs differ."""

import sys
from pathlib import Path

import compare_outputs

# A stand-in for hermsos.cli: it prints the options of each call without the
# paths, plus MARK when an option is "2", and writes the output file it is given.
FAKE_CLI = '''
MARK = {mark!r}

def main(argv):
    words = [a for a in argv if not a.startswith("/")]
    print(" ".join(words + [MARK] if "2" in words else words))
    if "--output" in argv:
        open(argv[argv.index("--output") + 1], "w").write("h")
    return 0
'''


def fake_checkout(root: Path, mark: str) -> Path:
    package = root / "src" / "hermsos"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(mark=mark))
    return root


def test_a_changed_stdout_is_reported(tmp_path):
    parent = fake_checkout(tmp_path / "parent", "")
    change = fake_checkout(tmp_path / "change", "!")
    assert compare_outputs.differences(parent, parent, [("roundtrip", 1)]) == (160, [])
    count, lines = compare_outputs.differences(parent, change, [("roundtrip", 1)])
    assert count == 160
    # "--b 2" is passed to the B jobs only: three in each of the 8 blocks of 20
    assert len(lines) == 24
    assert all(line.endswith("(roundtrip-B): stdout differ") for line in lines)


def test_every_command_line_is_run_and_a_changed_one_is_reported(tmp_path):
    parent = fake_checkout(tmp_path / "parent", "")
    change = fake_checkout(tmp_path / "change", "!")
    assert compare_outputs.argv_differences(parent, parent) == []
    # of the command lines, only the two "gaps --n 2" ones pass a "2"
    assert compare_outputs.argv_differences(parent, change) == [
        "hermsos gaps --n 2 --frobnicate: stdout differ",
        "hermsos gaps --n 2 -- 3: stdout differ",
    ]
    # each run sees every command line: the fake prints its words, the golden paths
    # left out, and an empty MARK after a "2"
    seen = [record["stdout"] for record in compare_outputs.run_checkout(parent, "argv_digests()")]
    words = [[arg for arg in call if not arg.startswith("@")] for call in compare_outputs.ARGV]
    assert seen == [compare_outputs._digest(" ".join(w + [""] if "2" in w else w) + "\n") for w in words]


def test_the_command_lines_cover_help_usage_and_refusals():
    calls = compare_outputs.ARGV
    assert [[], ["--help"], ["-h"]] == calls[:3]
    # the help of every subcommand
    assert [call[0] for call in calls if call[1:] == ["-h"]] == list(compare_outputs.COMMANDS)
    assert ["example1", "--lambda", "-1/7"] in calls
    assert any("--" in call for call in calls)
    # the golden documents they name exist
    names = {arg[1:] for call in calls for arg in call if arg.startswith("@")}
    assert names and all((compare_outputs.GOLDEN / name).is_file() for name in names)


def test_the_change_side_runs_under_the_interpreter_it_is_given(tmp_path):
    # one checkout whose CLI prints the SIDE variable, and an interpreter that
    # sets it: every command line differs under that interpreter alone
    root = tmp_path / "checkout"
    package = root / "src" / "hermsos"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text('import os\n\ndef main(argv):\n    print(os.environ.get("SIDE", ""))\n    return 0\n')
    python = tmp_path / "python"
    python.write_text(f'#!/bin/sh\nSIDE=change exec "{sys.executable}" "$@"\n')
    python.chmod(0o755)
    assert compare_outputs.argv_differences(root, root) == []
    lines = compare_outputs.argv_differences(root, root, str(python))
    assert len(lines) == len(compare_outputs.ARGV)
    assert all(line.endswith(": stdout differ") for line in lines)
