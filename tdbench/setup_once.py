"""One benchmark set-up: import tdopt from ./src and write a workload's
channel files.

run.py calls `prepare` for its own set-up and also runs this file in fresh
interpreters to time set-up, from spawn to the "ready" line it prints:

    python3 tdbench/setup_once.py WORKLOAD SEED WORKDIR
"""

from __future__ import annotations

import os
import sys


def source_dir() -> str | None:
    """The checkout's src/ directory, or None when it holds no tdopt."""
    src = os.path.join(os.getcwd(), "src")
    return src if os.path.isfile(os.path.join(src, "tdopt", "cli.py")) else None


def prepare(src: str, workload: str, seed: int, workdir: str):
    """Import tdopt's CLI from `src` and write the corpus into `workdir`;
    returns (the tdopt.cli module, the workload's commands)."""
    sys.path.insert(0, src)
    import tdopt.cli

    if not os.path.realpath(tdopt.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"tdopt was imported from {tdopt.cli.__file__}, not from {src}")
    from corpus import CORPORA

    return tdopt.cli, CORPORA[workload](seed, workdir)


if __name__ == "__main__":
    prepare(source_dir(), sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
