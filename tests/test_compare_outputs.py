"""``compare_outputs`` reports exactly the jobs whose outputs differ."""

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
