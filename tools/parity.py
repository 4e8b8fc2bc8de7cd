"""Output fingerprints of a tdopt checkout, for byte-identity checks across a
change.

    python3 tools/parity.py [ROOT] > hashes.txt

Runs every command of tdbench's search, region and capacity corpora at seeds
0 and 1 in-process through tdopt.cli.main, then the four demos, all with
tdopt imported from ROOT/src (default: this checkout). Prints one sha256 per
output over its stdout, stderr, exit code and the JSON or CSV file it wrote
(a demo's over its stdout alone). Channel paths appear in stdout, so the work
directory is fixed; diff the printed lines of two checkouts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
WORKDIR = os.path.join(tempfile.gettempdir(), "tdopt-parity")
DEMOS = ("capacity_certificates", "perturbation_and_timeshare", "region_sampling", "verdict_gallery")


def digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tdbench")]
    from corpus import CORPORA
    from tdopt.cli import main as tdopt_main

    for seed in (0, 1):
        for workload, corpus in CORPORA.items():
            shutil.rmtree(WORKDIR, ignore_errors=True)
            os.makedirs(WORKDIR)
            for cmd in corpus(seed, WORKDIR):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = tdopt_main(cmd.argv, out=out)
                written = ""
                if os.path.exists(cmd.out_path):
                    with open(cmd.out_path, encoding="utf-8") as fh:
                        written = fh.read()
                print(digest(out.getvalue(), err.getvalue(), str(code), written),
                      f"seed {seed} {cmd.label}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for name in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(os.path.join(ROOT, "demos", f"{name}.py"), run_name="__main__")
        print(digest(out.getvalue()), f"demo {name}")


if __name__ == "__main__":
    main()
