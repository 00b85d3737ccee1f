"""Run one ``hermsos`` command line in this process and capture its outputs.

Standard library only, so ``replay_golden.py`` can use it on an interpreter
without pytest, as ``compare_outputs.py`` does in the subprocess it starts
for each checkout.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Sequence, Tuple, Union


def run(call: Sequence[str], documents: Path) -> Tuple[Union[int, str], str, str]:
    """The exit code of ``hermsos.cli.main`` on call, or "raised <type>" if it
    raised, and what it wrote to stdout and stderr; each "@name" in call is
    the path of the document name in the directory documents."""
    # imported here, from whichever src/ the caller put on sys.path
    from hermsos.cli import main

    argv = [str(documents / arg[1:]) if arg.startswith("@") else arg for arg in call]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is an outcome to compare, not a stop
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()
