"""List the functions under src/signpipe that no CLI command enters.

Runs every command of `tools/digests.py` for seed 3 in this one process,
with one BLAS thread and a profile hook that records each code object that
runs, then prints `file:line name` for each function defined in
src/signpipe that none of them entered. A function that the bench, a demo
or the acceptance tests name is tagged with where, as in
`[named in bench/workloads.py:27,201]`: no command enters it, but it may
have a caller all the same. A method counts as named where `.name`
appears; a nested function is never tagged. Command output is discarded.
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
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
# Callers outside src/ that a function left out of every command may still serve.
OTHER_CALLERS = ("bench/*.py", "demos/*.py", "tests/test_acceptance.py")


def _functions(path: Path) -> list:
    """Every function code object a module's source defines, nested ones too."""
    found, pending = [], [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found.append(code)
        pending.extend(c for c in code.co_consts if inspect.iscode(c))
    return found


def _named_in(qualname: str, sources: dict[str, list[str]]) -> str:
    """`path:line,line` for each source whose lines name the function, joined by ", "."""
    if "<locals>" in qualname:
        return ""
    *owner, name = qualname.split(".")
    prefix = r"\." if owner else r"\b"
    word = re.compile(rf"{prefix}{re.escape(name)}\b")
    found = []
    for path, lines in sources.items():
        hits = [str(i) for i, line in enumerate(lines, 1) if word.search(line)]
        if hits:
            found.append(f"{path}:{','.join(hits)}")
    return ", ".join(found)


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

    sources = {str(p.relative_to(ROOT)): p.read_text().splitlines()
               for pattern in OTHER_CALLERS for p in sorted(ROOT.glob(pattern))}
    for path in sorted(package.glob("*.py")):
        for code in sorted(_functions(path), key=lambda c: c.co_firstlineno):
            if (code.co_filename, code.co_firstlineno) not in entered:
                name = getattr(code, "co_qualname", code.co_name)  # co_qualname is Python 3.11+
                named = _named_in(name, sources)
                tag = f"  [named in {named}]" if named else ""
                print(f"{path.relative_to(ROOT)}:{code.co_firstlineno} {name}{tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
