"""List the functions under src/signpipe that no CLI command enters.

Runs every command of `tools/digests.py` for seed 3 in this one process,
with one BLAS thread and a profile hook that records each code object that
runs, then prints `file:line name` for each function defined in
src/signpipe that none of them entered. Command output is discarded.
Forest training forks workers; what runs only in a worker is not seen, but
the parent always grows the first range of trees itself. Takes about two
minutes:

    python tools/traffic.py
"""
from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3


def _functions(path: Path) -> list:
    """Every function code object a module's source defines, nested ones too."""
    found, pending = [], [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found.append(code)
        pending.extend(c for c in code.co_consts if inspect.iscode(c))
    return found


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    from digests import _commands, _write_inputs
    from signpipe import cli

    package = Path(cli.__file__).parent
    entered = set()

    def record(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_inputs(Path(tmp))
        try:
            for name, argv in _commands(SEED):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    sys.setprofile(record)
                    try:
                        status = cli.main(argv)
                    finally:
                        sys.setprofile(None)
                if status != 0:
                    raise SystemExit(f"seed {SEED} {name}: exit {status}")
        finally:
            os.chdir(start)

    for path in sorted(package.glob("*.py")):
        for code in sorted(_functions(path), key=lambda c: c.co_firstlineno):
            if (code.co_filename, code.co_firstlineno) not in entered:
                name = getattr(code, "co_qualname", code.co_name)  # co_qualname is Python 3.11+
                print(f"{path.relative_to(ROOT)}:{code.co_firstlineno} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
