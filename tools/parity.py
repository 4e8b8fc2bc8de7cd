"""Output fingerprints of a tdopt checkout, for byte-identity checks across a
change.

    python3 tools/parity.py [ROOT] > hashes.txt

Runs every command of tdbench's search, region and capacity corpora at seeds
0 and 1 in-process through tdopt.cli.main, then `--help` of tdopt and of each
command, three `example-gen` runs, `verdict`, `analyze` and `region --out` of
one capacity-gap pair with `--units nats` (the corpora run in bits, so this
is the one region CSV written with scaled rates), `verdict`,
`region` and `analyze` of the `sec4 3 2` partition pair at `--samples 0` (no
probes and no draws; its support union is not full, so `analyze` runs three
checks and skips the divergence form), `region` of the `sec4 5 3` pair at `--samples 500` (its 8 inputs are
the most of any pair here, so its marginals add the most X slices and its
channel products are the longest), `verdict --json` of the `sec4 4 3` pair at
`--samples 1025` (one draw past two whole generator batches),
`capacity --json` of two channels whose
capacity optimizer is not unique (so their achieving inputs come from the
support-union simplex) and the four demos, all with tdopt imported from
ROOT/src (default: this checkout).
Prints one sha256 per output over its stdout, stderr, exit code and the
files it wrote (a demo's over its stdout alone). Channel paths appear in
stdout, so the work directory is fixed, and help text is wrapped at a fixed
width; diff the printed lines of two checkouts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
WORKDIR = os.path.join(tempfile.gettempdir(), "tdopt-parity")
COMMANDS = ("capacity", "verdict", "region", "example-gen", "analyze")
# example-gen arguments, and the files each writes given --out example.json
EXAMPLES = (
    (["bsc", "0.11"], ["example.json"]),
    (["bec", "0.3"], ["example.json"]),
    (["sec4"], ["example.first.json", "example.second.json"]),
)
# the capacity-gap pair run in nats: example-gen arguments of its two channels
NATS_PAIR = (["bsc", "0.1"], ["bsc", "0.3"])
# example-gen arguments of partition pairs, each with its sample count and
# the commands run on it, with the flag that names each command's output file
SAMPLED_PAIRS = (
    (["sec4", "3", "2"], "0", (("verdict", "--json"), ("region", "--out"), ("analyze", "--json"))),
    (["sec4", "5", "3"], "500", (("region", "--out"),)),
    (["sec4", "4", "3"], "1025", (("verdict", "--json"),)),
)
# rows of channels with more than one capacity-achieving input: the simplex
# runs once per peak symbol to average their optimizers into one witness
SIMPLEX_CHANNELS = {
    "repeated-rows": [[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]],
    "twin-rows": [[0.9, 0.1, 0.0], [0.9, 0.1, 0.0], [0.0, 0.1, 0.9]],
}
DEMOS = ("capacity_certificates", "perturbation_and_timeshare", "region_sampling", "verdict_gallery")


def digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def run_cli(tdopt_main, argv) -> tuple[str, str, str]:
    """stdout, stderr and exit code of one in-process command; argparse prints
    help to sys.stdout, so that is captured too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = tdopt_main(argv, out=out)
    return out.getvalue(), err.getvalue(), str(code)


def read(path: str) -> str:
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tdbench")]
    from corpus import CORPORA
    from tdopt.cli import main as tdopt_main
    from tdopt.cli import save_channel
    from tdopt.core import Alphabet, Channel

    for seed in (0, 1):
        for workload, corpus in CORPORA.items():
            shutil.rmtree(WORKDIR, ignore_errors=True)
            os.makedirs(WORKDIR)
            for cmd in corpus(seed, WORKDIR):
                print(digest(*run_cli(tdopt_main, cmd.argv), read(cmd.out_path)),
                      f"seed {seed} {cmd.label}")
    for command in ("", *COMMANDS):
        print(digest(*run_cli(tdopt_main, [command, "--help"] if command else ["--help"])),
              f"help {command or 'tdopt'}")
    for args, written in EXAMPLES:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)
        outputs = run_cli(tdopt_main, ["example-gen", *args, "--out", os.path.join(WORKDIR, "example.json")])
        files = [read(os.path.join(WORKDIR, name)) for name in written]
        print(digest(*outputs, *files), f"example-gen {' '.join(args)}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    pair = [os.path.join(WORKDIR, f"{'-'.join(args)}.json") for args in NATS_PAIR]
    for args, path in zip(NATS_PAIR, pair):
        run_cli(tdopt_main, ["example-gen", *args, "--out", path])
    for command, dest_flag in (("verdict", "--json"), ("analyze", "--json"), ("region", "--out")):
        dest = os.path.join(WORKDIR, f"{command}.{dest_flag[2:]}")  # verdict.json, region.out
        outputs = run_cli(tdopt_main, [command, *pair, "--units", "nats", dest_flag, dest])
        print(digest(*outputs, read(dest)), f"nats {command} {' '.join(os.path.basename(p) for p in pair)}")
    for args, samples, commands in SAMPLED_PAIRS:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)
        run_cli(tdopt_main, ["example-gen", *args, "--out", os.path.join(WORKDIR, "pair.json")])
        pair = [os.path.join(WORKDIR, f"pair.{side}.json") for side in ("first", "second")]
        for command, dest_flag in commands:
            dest = os.path.join(WORKDIR, f"{command}.out")
            outputs = run_cli(tdopt_main, [command, *pair, "--samples", samples, dest_flag, dest])
            print(digest(*outputs, read(dest)), f"samples {samples} {command} {' '.join(args)}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    for name, rows in SIMPLEX_CHANNELS.items():
        path, dest = (os.path.join(WORKDIR, f"{name}{suffix}.json") for suffix in ("", ".capacity"))
        save_channel(Channel(Alphabet.of_size(len(rows)), Alphabet.of_size(len(rows[0]), "y"), rows), path)
        outputs = run_cli(tdopt_main, ["capacity", path, "--json", dest])
        print(digest(*outputs, read(dest)), f"simplex capacity {name}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for name in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(os.path.join(ROOT, "demos", f"{name}.py"), run_name="__main__")
        print(digest(out.getvalue()), f"demo {name}")


if __name__ == "__main__":
    main()
