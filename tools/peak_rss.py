"""Print the peak resident memory of each command tools/digests.py runs.

Runs the commands of its first seed (3) in order, each in its own
subprocess against one checkout's `src/` with one BLAS thread, and prints
`name peak_MB` per command: the child's ru_maxrss from os.wait4, in MB of
1,024 KiB as the benchmark's `peak_rss_mb` counts them. To compare a change
with its parent:

    python tools/peak_rss.py --repo PARENT_CHECKOUT
    python tools/peak_rss.py
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from digests import SEEDS, _commands, _env, _write_inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    env = _env(args.repo)
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for name, cmd in _commands(SEEDS[0]):
            with subprocess.Popen([sys.executable, "-m", "signpipe.cli", *cmd], cwd=tmp, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
                err = proc.stderr.read()  # until the child exits and closes it
                _, status, usage = os.wait4(proc.pid, 0)  # reaps it, with its rusage
                proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                sys.stderr.write(err.decode(errors="replace"))
                raise SystemExit(f"seed {SEEDS[0]} {name}: exit {proc.returncode}")
            print(f"{name} {usage.ru_maxrss / 1024.0:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
