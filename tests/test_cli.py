"""Command-line behavior: file IO round trips, exit codes, determinism,
units handling, and the stock example generator."""

import io
import json
import math
import re
from unittest.mock import patch

import numpy as np
import pytest

from tdopt.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    channel_to_dict,
    load_channel,
    main,
    save_channel,
)
from tdopt.core import Alphabet, Channel
from tdopt.families import make_bec, make_bsc, make_partition_pair

# Two partitions of a 4-letter alphabet resolving different bits: equal
# capacities, and neither channel is more capable than the other.
LOW_HIGH = (
    Channel(Alphabet.of_size(4), Alphabet(("l0", "l1")), np.array([[1, 0], [0, 1], [1, 0], [0, 1]])),
    Channel(Alphabet.of_size(4), Alphabet(("h0", "h1")), np.array([[1, 0], [1, 0], [0, 1], [0, 1]])),
)

PARTITION = make_partition_pair(4, 2)

# Four identical rows among six inputs reaching three outputs: the capacity
# optimizer is not unique, so the support union runs the simplex.
IDENTICAL_ROWS = np.array([[0, 0, 0, 1, 0]] * 4 + [[0, 0, 0.25, 0, 0.75], [0, 0, 0.5, 0.5, 0]])


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write_bsc(path, eps):
    save_channel(make_bsc(eps), str(path))
    return str(path)


def write_pair(tmp_path, pair):
    paths = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    for ch, path in zip(pair, paths):
        save_channel(ch, path)
    return paths


def read_capacity_text(lines):
    """The capacity document's fields as the text report `lines` (one
    channel's block) prints them, numbers read back with float()."""
    doc = {"divergence_profile": []}
    for line in lines[1:]:
        if m := re.fullmatch(r"  capacity: (\S+) (bits|nats)", line):
            doc["capacity"], doc["units"] = float(m[1]), m[2]
        elif m := re.fullmatch(r"  bracket: (\S+) after (\d+) iterations", line):
            doc["bracket"], doc["iterations"] = float(m[1]), int(m[2])
        elif m := re.fullmatch(r"  optimal output: (.*)", line):
            doc["optimal_output"] = [float(t.split("=")[1]) for t in m[1].split()]
        elif m := re.fullmatch(r"    \S+: (\S+)", line):
            doc["divergence_profile"].append(float(m[1]))
        elif m := re.fullmatch(r"  (peak set|support union): (.*)", line):
            doc[m[1].replace(" ", "_")] = m[2].split()
        else:
            assert re.fullmatch(r"  alphabet: .*|  divergence profile:", line), line
    return doc


def read_verdict_text(text):
    """The verdict document's fields as its text report prints them, numbers
    read back with float()."""
    doc = {"channels": {}, "checks": {}, "witnesses": [], "search_limited": False, "evidence": None}
    for line in text.splitlines()[1:]:
        if m := re.fullmatch(r"(status|branch): (\w+)", line):
            doc[m[1]] = m[2]
        elif m := re.fullmatch(r"swapped: (true|false)", line):
            doc["swapped"] = m[1] == "true"
        elif m := re.fullmatch(r"capacities: C1=(\S+) C2=(\S+) (bits|nats)", line):
            capacities, doc["units"] = (float(m[1]), float(m[2])), m[3]
        elif m := re.fullmatch(r"(first|second): peak set \[(.*)\] support union \[(.*)\]", line):
            doc["channels"][m[1]] = {"peak_set": m[2].split(), "support_union": m[3].split()}
        elif m := re.fullmatch(r"check (\w+): (\w+) gap=(\S+) starts=(\d+) evaluations=(\d+)", line):
            doc["checks"][m[1]] = {
                "status": m[2], "gap": float(m[3]), "starts": int(m[4]), "evaluations": int(m[5]),
            }
        elif m := re.fullmatch(r"witness (\d+): (.*)", line):
            assert int(m[1]) == len(doc["witnesses"])
            doc["witnesses"].append([float(t) for t in m[2].split()])
        elif line == "note: optimality is certified only up to the search budget":
            doc["search_limited"] = True
        else:
            m = re.fullmatch(
                r"evidence: marton min slack (\S+) over (\d+) points; "
                r"uv min slack (\S+) over (\d+) points", line
            )
            assert m, line
            doc["evidence"] = {
                "marton": {"min_td_slack": float(m[1]), "points": int(m[2])},
                "uv": {"min_td_slack": float(m[3]), "points": int(m[4])},
            }
    for name, capacity in zip(("first", "second"), capacities):
        doc["channels"][name]["capacity"] = capacity
    return doc


def pick(doc, keys):
    return {k: doc[k] for k in keys}


def assert_numeric_error(capsys, path):
    """`capacity` and `verdict` on the channel at `path` exit EXIT_NUMERIC
    with the inconsistent-certificate message."""
    for argv in (["capacity", path], ["verdict", path, path, "--samples", "0"]):
        code, _ = run(argv)
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "certificate is inconsistent" in err


class TestChannelFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.dirichlet(np.ones(4), size=3)
        ch = Channel(Alphabet.of_size(3), Alphabet.of_size(4, prefix="y"), raw)
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        loaded = load_channel(str(path))
        assert loaded.input == ch.input
        assert loaded.output == ch.output
        # stored values are pre-rounded to 12 significant digits
        expected = np.array([[float(f"{v:.12g}") for v in row] for row in ch.rows])
        assert np.array_equal(loaded.rows, expected)
        second = tmp_path / "ch2.json"
        save_channel(loaded, str(second))
        assert path.read_bytes() == second.read_bytes()

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"input": ["0"], "matrix": [[1.0]]}')
        with pytest.raises(ValueError, match="output"):
            load_channel(str(path))

    @pytest.mark.parametrize("doc, field", [
        ('{"input": 5, "output": ["0"], "matrix": [[1.0]]}', "input"),
        ('{"input": "01", "output": ["0"], "matrix": [[1.0], [1.0]]}', "input"),
        ('{"input": ["0"], "output": {"0": 1}, "matrix": [[1.0]]}', "output"),
        ('{"input": ["0"], "output": ["0"], "matrix": 5}', "matrix"),
    ])
    def test_non_list_field_rejected(self, tmp_path, capsys, doc, field):
        path = tmp_path / "ch.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match=f"ch.json: field '{field}' must be a list"):
            load_channel(str(path))
        assert run(["capacity", str(path)])[0] == EXIT_INPUT
        assert f"field '{field}' must be a list" in capsys.readouterr().err

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"input": ["0", "1"], "output": ["0"], "matrix": [[1.0]]}')
        with pytest.raises(ValueError, match="2 input symbols"):
            load_channel(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"input": ["0"],\n  "oops\n}')
        with pytest.raises(ValueError, match="line 2"):
            load_channel(str(path))

    def test_dict_uses_rounded_floats(self):
        ch = Channel(
            Alphabet(("0", "1")),
            Alphabet(("0", "1")),
            [[1.0 / 3.0, 2.0 / 3.0], [0.25, 0.75]],
        )
        doc = channel_to_dict(ch)
        assert doc["matrix"][0][0] == 0.333333333333


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _ = run(["capacity", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT
        assert "nope.json" in capsys.readouterr().err

    def test_bad_row_sum_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"input": ["0", "1"], "output": ["0", "1"],'
            ' "matrix": [[0.5, 0.6], [0.5, 0.5]]}'
        )
        code, _ = run(["capacity", str(path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 0" in err and str(path) in err

    def test_negative_entry_named(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(
            '{"input": ["0", "1"], "output": ["0", "1"],'
            ' "matrix": [[1.2, -0.2], [0.5, 0.5]]}'
        )
        code, _ = run(["capacity", str(path)])
        assert code == EXIT_INPUT
        assert "negative entry -0.2 at position (1,)" in capsys.readouterr().err

    def test_mismatched_pair_is_input_error(self, tmp_path, capsys):
        b = write_bsc(tmp_path / "b.json", 0.1)
        pair = make_partition_pair(4, 2)
        save_channel(pair.first, str(tmp_path / "p.json"))
        code, _ = run(["verdict", b, str(tmp_path / "p.json")])
        assert code == EXIT_INPUT
        assert "share the input alphabet" in capsys.readouterr().err

    def test_card_below_one_is_input_error(self, tmp_path, capsys):
        b = write_bsc(tmp_path / "b.json", 0.1)
        code, _ = run(["region", b, b, "--card", "0,1,1", "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: cardinalities must be three counts >= 1, got (0, 1, 1)\n"

    def test_nan_violation_tol_is_input_error(self, tmp_path, capsys):
        # a NaN threshold would let every search pass and claim TD_OPTIMAL
        b1, b3 = write_bsc(tmp_path / "b1.json", 0.1), write_bsc(tmp_path / "b3.json", 0.3)
        code, out = run(["verdict", b1, b3, "--violation-tol", "nan"])
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == "error: violation_tol must be finite, got nan\n"

    def test_huge_starts_is_input_error_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # a billion starts over two inputs would ask numpy for 16 GB of draws;
        # every generator refuses to draw, so a missing check fails here
        # without allocating anything
        class Drew(Exception):
            pass

        class NoDraws(np.random.Generator):
            def dirichlet(self, *args, **kwargs):
                raise Drew

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws(np.random.PCG64(seed)))
        b1, b3 = write_bsc(tmp_path / "b1.json", 0.1), write_bsc(tmp_path / "b3.json", 0.3)
        code, out = run(["verdict", b1, b3, "--samples", "0", "--starts", "1000000000"])
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == (
            "error: 1000000000 random starts would need 2000000000 cells (limit 1000000); "
            "reduce the starts\n"
        )

    @pytest.mark.parametrize("command", ["verdict", "region"])
    def test_huge_samples_is_input_error_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                         command):
        # a billion samples would keep about 93 GB of corners; every generator
        # refuses to draw, so a missing check fails here without allocating
        # anything. The partition pair samples on both commands.
        class Drew(Exception):
            pass

        class NoDraws(np.random.Generator):
            def dirichlet(self, *args, **kwargs):
                raise Drew

        assert run(["example-gen", "sec4", "3", "2", "--out", str(tmp_path / "p.json")])[0] == EXIT_OK
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws(np.random.PCG64(seed)))
        pair = [str(tmp_path / f"p.{side}.json") for side in ("first", "second")]
        code, out = run([command, *pair, "--samples", "1000000000"])
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == (
            "error: 1000000000 samples per bound exceed the limit of 1000000; "
            "reduce the samples\n"
        )

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3")])
    def test_negative_seed_is_input_error_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                          flag, env):
        # the config is checked before the channel files are read or analyzed
        monkeypatch.setattr("tdopt.cli.load_channel", lambda path: pytest.fail("file read"))
        if env is None:
            monkeypatch.delenv("TDOPT_SEED", raising=False)
        else:
            monkeypatch.setenv("TDOPT_SEED", env)
        code, out = run(["verdict", str(tmp_path / "a.json"), str(tmp_path / "b.json"), *flag])
        assert code == EXIT_INPUT and out == ""
        seed = flag[1] if flag else env
        assert capsys.readouterr().err == f"error: seed must be nonnegative, got {seed}\n"

    def test_unknown_command_is_usage_error(self, capsys):
        code, _ = run(["frobnicate"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_invalid_family_parameter(self, tmp_path, capsys):
        code, _ = run(["example-gen", "bsc", "1.5", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_unwritable_output_path(self, tmp_path, capsys):
        b = write_bsc(tmp_path / "b.json", 0.1)
        dest = tmp_path / "no" / "such" / "dir" / "r.csv"
        code, _ = run(["region", b, b, "--samples", "0", "--out", str(dest)])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        code, _ = run(["--help"])
        assert code == EXIT_OK
        capsys.readouterr()


class TestParserReuse:
    """`main` parses with one parser per process; no flag or default leaks
    from one command into the next."""

    def test_consecutive_commands_are_independent(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TDOPT_SEED", raising=False)
        b = write_bsc(tmp_path / "b.json", 0.11)
        fresh = run(["capacity", b])
        assert run(["capacity", b, "--units", "nats", "--seed", "3", "--tol", "1e-6"])[0] == EXIT_OK
        assert run(["verdict", b, b, "--samples", "0", "--starts", "2"])[0] == EXIT_OK
        assert run(["frobnicate"])[0] == EXIT_INPUT
        assert run(["capacity", b]) == fresh
        assert "units=bits" in fresh[1] and "seed=0 " in fresh[1]

    def test_help_unchanged(self, capsys):
        assert build_parser() is build_parser()
        assert run(["--help"])[0] == EXIT_OK
        assert capsys.readouterr().out == build_parser.__wrapped__().format_help()
        assert run(["capacity", "--help"])[0] == EXIT_OK
        assert "--tol TOL" in capsys.readouterr().out

    def test_violation_tol_help_names_every_gap_it_judges(self, capsys):
        assert run(["verdict", "--help"])[0] == EXIT_OK
        assert (
            "--violation-tol VIOLATION_TOL how far below zero a gap or slack must fall to count "
            "as a violation: bits for more-capable gaps, unitless for ratio and divergence-form "
            "gaps and time-division slacks --cap-eq-tol"
        ) in " ".join(capsys.readouterr().out.split())


class TestExampleGen:
    def test_bsc_file_contents(self, tmp_path):
        path = tmp_path / "b.json"
        code, _ = run(["example-gen", "bsc", "0.11", "--out", str(path)])
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["input"] == ["0", "1"]
        assert doc["matrix"] == [[0.89, 0.11], [0.11, 0.89]]

    def test_bec_file_contents(self, tmp_path):
        path = tmp_path / "e.json"
        code, _ = run(["example-gen", "bec", "0.4", "--out", str(path)])
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["output"] == ["0", "e", "1"]
        assert doc["matrix"] == [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]]

    def test_partition_family_writes_both_channels(self, tmp_path):
        code, out = run(["example-gen", "sec4", "--out", str(tmp_path / "p.json")])
        assert code == EXIT_OK
        first = load_channel(str(tmp_path / "p.first.json"))
        second = load_channel(str(tmp_path / "p.second.json"))
        ref = make_partition_pair(4, 2)
        assert first.input == ref.first.input
        assert np.allclose(first.rows, ref.first.rows)
        assert np.allclose(second.rows, ref.second.rows)
        assert "p.first.json" in out and "p.second.json" in out

    def test_partition_sizes_are_parameters(self, tmp_path):
        code, _ = run(["example-gen", "sec4", "6", "3", "--out", str(tmp_path / "p.json")])
        assert code == EXIT_OK
        first = load_channel(str(tmp_path / "p.first.json"))
        second = load_channel(str(tmp_path / "p.second.json"))
        # block sizes: the shared input alphabet is their disjoint union
        assert len(first.input) == 9
        assert len(first.output) == 6
        assert len(second.output) == 3

    @pytest.mark.parametrize("size", ["4.5", "inf", "nan"])
    def test_non_integer_sizes_rejected(self, tmp_path, capsys, size):
        code, _ = run(["example-gen", "sec4", size, "2", "--out", str(tmp_path / "p.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: sec4 takes two integer block sizes\n"


class TestCommandFlags:
    """Each command accepts only the settings it reads: the run settings go on
    the four commands that run the procedure, --json on those writing JSON."""

    @pytest.mark.parametrize("command", ["region", "example-gen"])
    def test_json_rejected_where_no_json_is_written(self, tmp_path, capsys, command):
        b = write_bsc(tmp_path / "b.json", 0.1)
        operands = [b, b, "--samples", "0"] if command == "region" else ["bsc", "0.1"]
        dest = tmp_path / "x.json"
        code, _ = run([command, *operands, "--out", str(tmp_path / "o"), "--json", str(dest)])
        assert code == EXIT_INPUT
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        assert not dest.exists()

    def test_example_gen_rejects_run_settings(self, tmp_path, capsys):
        dest = tmp_path / "b.json"
        code, _ = run(["example-gen", "bsc", "0.1", "--out", str(dest), "--tol", "1"])
        assert code == EXIT_INPUT
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
        assert not dest.exists()

    def test_example_gen_ignores_environment_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TDOPT_SEED", "abc")
        dest = tmp_path / "b.json"
        assert run(["example-gen", "bsc", "0.1", "--out", str(dest)])[0] == EXIT_OK
        assert load_channel(str(dest)).rows.tolist() == [[0.9, 0.1], [0.1, 0.9]]

    def test_example_gen_help_lists_only_its_own_arguments(self, capsys):
        assert run(["example-gen", "--help"])[0] == EXIT_OK
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: tdopt example-gen [-h] --out PATH {bsc,bec,sec4} [params ...]"


class TestCapacityCommand:
    def test_report_values(self, tmp_path):
        b = write_bsc(tmp_path / "b.json", 0.11)
        jpath = tmp_path / "cap.json"
        code, out = run(["capacity", b, "--json", str(jpath)])
        assert code == EXIT_OK
        assert "config:" in out and "capacity:" in out
        doc = json.loads(jpath.read_text())
        h2 = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        assert abs(doc["capacity"] - (1.0 - h2)) <= 1e-9
        assert doc["peak_set"] == ["0", "1"]
        assert doc["support_union"] == ["0", "1"]

    def test_units_scale_by_ln2(self, tmp_path):
        b = write_bsc(tmp_path / "b.json", 0.11)
        j1, j2 = tmp_path / "bits.json", tmp_path / "nats.json"
        assert run(["capacity", b, "--json", str(j1)])[0] == EXIT_OK
        assert run(["capacity", b, "--units", "nats", "--json", str(j2)])[0] == EXIT_OK
        bits = json.loads(j1.read_text())["capacity"]
        nats = json.loads(j2.read_text())["capacity"]
        assert abs(nats - bits * math.log(2.0)) <= 1e-12

    def test_partition_channel_support_union_printed(self, tmp_path):
        run(["example-gen", "sec4", "--out", str(tmp_path / "p.json")])
        code, out = run(["capacity", str(tmp_path / "p.first.json")])
        assert code == EXIT_OK
        assert "support union: a0 a1 a2 a3" in out

    def test_identical_rows_exit_zero(self, tmp_path):
        path = str(tmp_path / "dup.json")
        save_channel(Channel(Alphabet.of_size(6), Alphabet.of_size(5, "y"), IDENTICAL_ROWS), path)
        code, out = run(["capacity", path])
        assert code == EXIT_OK
        assert "capacity: 1 bits" in out
        assert run(["verdict", path, path, "--samples", "20"])[0] == EXIT_OK

    @pytest.mark.parametrize("step", ["feasible_basis", "lp_solve_max_coordinate"])
    def test_inconsistent_certificate_is_numeric_error(self, tmp_path, monkeypatch, capsys, step):
        # more peak rows than outputs: the support union needs the simplex
        path = str(tmp_path / "dup.json")
        save_channel(Channel(Alphabet.of_size(6), Alphabet.of_size(5, "y"), IDENTICAL_ROWS), path)
        monkeypatch.setattr(f"tdopt.capacity.{step}", lambda *args: None)
        assert_numeric_error(capsys, path)

    def test_inconsistent_unique_certificate_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        # BSC(0.11)'s optimizer is unique; with only input 0 counted as peak,
        # no input on the peak set reproduces the uniform optimal output
        b = write_bsc(tmp_path / "b.json", 0.11)
        monkeypatch.setattr("tdopt.capacity.compute_peak_set", lambda ch, *rest: ch.input.symbols[:1])
        assert_numeric_error(capsys, b)

    @pytest.mark.parametrize("units", ["bits", "nats"])
    @pytest.mark.parametrize(
        "ch",
        [make_bsc(0.1), LOW_HIGH[0], PARTITION.first, PARTITION.second],
        ids=["bsc-0.1", "low", "partition-first", "partition-second"],
    )
    def test_text_carries_the_json(self, tmp_path, ch, units):
        path, dest = str(tmp_path / "ch.json"), tmp_path / "cap.json"
        save_channel(ch, path)
        code, out = run(["capacity", path, "--units", units, "--json", str(dest)])
        assert code == EXIT_OK
        doc = json.loads(dest.read_text())
        printed = read_capacity_text(out.splitlines()[1:])
        assert printed == pick(doc, [k for k in doc if k != "achieving_input"])

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        b = write_bsc(tmp_path / "b.json", 0.11)
        monkeypatch.setenv("TDOPT_SEED", "7")
        _, out = run(["capacity", b])
        assert "seed=7" in out
        # an explicit flag wins over the environment
        _, out = run(["capacity", b, "--seed", "3"])
        assert "seed=3" in out

    def test_config_header_keeps_every_tolerance_digit(self, tmp_path):
        b = write_bsc(tmp_path / "b.json", 0.11)
        assert run(["capacity", b])[1].splitlines()[0] == (
            "config: tol=1e-10 tol_k=1e-06 violation_tol=1e-07 cap_eq_tol=1e-06 "
            "seed=0 starts=64 samples=2000 card=2,2,2 units=bits"
        )
        for last in "19":
            flags = ["--tol", f"1.2345678{last}e-10", "--tol-k", f"2.3456789{last}e-6",
                     "--violation-tol", f"3.4567891{last}e-7", "--cap-eq-tol", f"4.5678912{last}e-6"]
            header = run(["capacity", b, *flags])[1].splitlines()[0]
            assert header.startswith(
                f"config: tol=1.2345678{last}e-10 tol_k=2.3456789{last}e-06 "
                f"violation_tol=3.4567891{last}e-07 cap_eq_tol=4.5678912{last}e-06 "
            )

    def test_bad_environment_seed_rejected(self, tmp_path, monkeypatch, capsys):
        b = write_bsc(tmp_path / "b.json", 0.11)
        monkeypatch.setenv("TDOPT_SEED", "not-a-number")
        code, _ = run(["capacity", b])
        assert code == EXIT_INPUT
        assert "TDOPT_SEED" in capsys.readouterr().err


class TestVerdictCommand:
    def test_erasure_pair_report(self, tmp_path):
        e1 = tmp_path / "e1.json"
        e2 = tmp_path / "e2.json"
        run(["example-gen", "bec", "0.1", "--out", str(e1)])
        run(["example-gen", "bec", "0.4", "--out", str(e2)])
        jpath = tmp_path / "v.json"
        code, out = run(["verdict", str(e1), str(e2), "--json", str(jpath)])
        assert code == EXIT_OK
        assert "status: TD_OPTIMAL" in out
        assert "branch: CAPACITY_GAP_RATIO" in out
        doc = json.loads(jpath.read_text())
        assert doc["status"] == "TD_OPTIMAL"
        assert doc["units"] == "bits"

    def test_refuted_pair_exits_zero_with_witness(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.1)
        b2 = write_bsc(tmp_path / "b2.json", 0.3)
        code, out = run(["verdict", b1, b2])
        assert code == EXIT_OK
        assert "status: TD_NOT_OPTIMAL" in out
        assert "witness 0:" in out

    def test_seed_changes_only_search_metadata(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.1)
        b2 = write_bsc(tmp_path / "b2.json", 0.3)
        j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
        run(["verdict", b1, b2, "--seed", "0", "--json", str(j1)])
        run(["verdict", b1, b2, "--seed", "99", "--json", str(j2)])
        d1 = json.loads(j1.read_text())
        d2 = json.loads(j2.read_text())
        assert d1["status"] == d2["status"] == "TD_NOT_OPTIMAL"
        assert d1["branch"] == d2["branch"]

    @pytest.mark.parametrize("units", ["bits", "nats"])
    @pytest.mark.parametrize(
        "pair, argv, shown",
        [
            ((make_bsc(0.1), make_bsc(0.3)), [], "witnesses"),
            (LOW_HIGH, [], "checks"),
            ((PARTITION.first, PARTITION.second), ["--samples", "20"], "evidence"),
            ((make_bec(0.1), make_bec(0.4)), [], "search_limited"),
        ],
        ids=["refuted-gap", "equal-capacity", "partition", "optimal"],
    )
    def test_text_carries_the_json(self, tmp_path, pair, argv, shown, units):
        dest = tmp_path / "v.json"
        code, out = run(["verdict", *write_pair(tmp_path, pair), *argv, "--units", units,
                         "--json", str(dest)])
        assert code == EXIT_OK
        doc = json.loads(dest.read_text())
        assert doc[shown]
        if shown == "checks":
            assert len(doc["checks"]) == 2 and len(doc["witnesses"]) == 2
        evidence = doc["evidence"] and {
            side: pick(doc["evidence"][side], ["min_td_slack", "points"]) for side in ("marton", "uv")
        }
        assert read_verdict_text(out) == {
            **pick(doc, ["status", "branch", "swapped", "units", "witnesses", "search_limited"]),
            "channels": {
                name: pick(c, ["capacity", "peak_set", "support_union"])
                for name, c in doc["channels"].items()
            },
            "checks": {
                name: pick(c, ["status", "gap", "starts", "evaluations"])
                for name, c in doc["checks"].items()
            },
            "evidence": evidence,
        }

    def test_json_is_reproducible(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.1)
        b2 = write_bsc(tmp_path / "b2.json", 0.3)
        j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
        run(["verdict", b1, b2, "--json", str(j1)])
        run(["verdict", b1, b2, "--json", str(j2)])
        assert j1.read_bytes() == j2.read_bytes()


class TestRegionCommand:
    def test_csv_structure(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.05)
        b2 = write_bsc(tmp_path / "b2.json", 0.2)
        dest = tmp_path / "r.csv"
        code, out = run(["region", b1, b2, "--samples", "40", "--out", str(dest)])
        assert code == EXIT_OK
        lines = dest.read_text().splitlines()
        assert lines[0] == "source,R1,R2"
        sources = {ln.split(",")[0] for ln in lines[1:]}
        assert sources == {"MARTON", "UV", "TD"}
        assert sum(ln.startswith("TD,") for ln in lines) == 101
        assert dest.read_text().endswith("\n")

    def test_reruns_are_byte_identical(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.05)
        b2 = write_bsc(tmp_path / "b2.json", 0.2)
        d1, d2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run(["region", b1, b2, "--samples", "40", "--out", str(d1)])
        run(["region", b1, b2, "--samples", "40", "--out", str(d2)])
        assert d1.read_bytes() == d2.read_bytes()

    def test_seed_changes_sample(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.05)
        b2 = write_bsc(tmp_path / "b2.json", 0.2)
        d1, d2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run(["region", b1, b2, "--samples", "40", "--seed", "0", "--out", str(d1)])
        run(["region", b1, b2, "--samples", "40", "--seed", "1", "--out", str(d2)])
        assert d1.read_bytes() != d2.read_bytes()

    def test_stdout_when_no_out_path(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.05)
        code, out = run(["region", b1, b1, "--samples", "0"])
        assert code == EXIT_OK
        assert out.startswith("source,R1,R2\n")

    def test_td_rows_trace_the_boundary(self, tmp_path):
        e1 = tmp_path / "e1.json"
        ident = tmp_path / "id.json"
        run(["example-gen", "bec", "0.0", "--out", str(e1)])
        save_channel(
            Channel(Alphabet(("0", "1")), Alphabet(("0", "1")), np.eye(2)),
            str(ident),
        )
        dest = tmp_path / "r.csv"
        run(["region", str(e1), str(ident), "--samples", "0", "--out", str(dest)])
        td = [ln for ln in dest.read_text().splitlines() if ln.startswith("TD,")]
        assert td[0] == "TD,1,0"
        assert td[-1] == "TD,0,1"
        assert "TD,0.5,0.5" in td


class TestAnalyzeCommand:
    def test_tables_printed(self, tmp_path):
        b1 = write_bsc(tmp_path / "b1.json", 0.11)
        b2 = write_bsc(tmp_path / "b2.json", 0.3)
        code, out = run(["analyze", b1, b2])
        assert code == EXIT_OK
        assert "comparison:" in out
        assert "ratio_condition:" in out
        assert "vertex screen" in out
        assert "more_capable first>=second: HOLDS" in out

    def test_zero_capacity_rejected_before_any_search(self, tmp_path, capsys):
        b1 = write_bsc(tmp_path / "b1.json", 0.1)
        b2 = write_bsc(tmp_path / "b2.json", 0.5)  # identical rows: zero capacity
        with patch("tdopt.comparison.dc_minimize", side_effect=AssertionError("searched")):
            code, _ = run(["analyze", b1, b2])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: the per-capacity ratio condition needs positive capacities\n"

    def test_divergence_form_skipped_without_full_support(self, tmp_path):
        pair = make_partition_pair(4, 2)
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        save_channel(pair.first, str(p1))
        save_channel(pair.second, str(p2))
        dest = tmp_path / "a.json"
        code, out = run(["analyze", str(p1), str(p2), "--json", str(dest)])
        assert code == EXIT_OK
        assert "divergence_form: skipped" in out
        doc = json.loads(dest.read_text())
        assert doc["checks"]["divergence_form"] == "SKIPPED"
        assert doc["gaps"]["divergence_form"] is None

    @pytest.mark.parametrize("units", ["bits", "nats"])
    def test_json_carries_the_text_report(self, tmp_path, units):
        b1 = write_bsc(tmp_path / "b1.json", 0.1)
        b2 = write_bsc(tmp_path / "b2.json", 0.3)
        dest = tmp_path / "a.json"
        code, out = run(["analyze", b1, b2, "--units", units, "--json", str(dest)])
        assert code == EXIT_OK
        doc = json.loads(dest.read_text())
        assert doc["checks"] == {
            "more_capable_forward": "HOLDS_UP_TO_SEARCH",
            "more_capable_backward": "VIOLATED",
            "ratio_condition": "VIOLATED",
            "divergence_form": "VIOLATED",
        }
        labels = {
            "more_capable_forward": "more_capable first>=second",
            "more_capable_backward": "more_capable second>=first",
            "ratio_condition": "ratio_condition",
            "divergence_form": "divergence_form",
        }
        for key, label in labels.items():
            line = f"  {label}: {doc['checks'][key]} gap={doc['gaps'][key]:.12g}\n"
            assert line in out
        # capacity-normalized gaps carry no unit, so both units give the bits value
        assert doc["gaps"]["ratio_condition"] == pytest.approx(-0.0317392992283, abs=1e-11)
        screen = doc["vertex_screen"]
        assert screen["first_family_holds"] is False
        assert screen["second_family_holds"] is True
        assert 0.0 <= screen["mixed_output_gap"] < 1e-12
        assert (
            "first family holds: false; second family holds: true; "
            f"mixed output gap: {screen['mixed_output_gap']:.12g}\n"
        ) in out
