"""Command-line behavior: file IO round trips, exit codes, determinism,
units handling, and the stock example generator."""

import io
import json
import math

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
from tdopt.families import make_bsc, make_partition_pair

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

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        b = write_bsc(tmp_path / "b.json", 0.11)
        monkeypatch.setenv("TDOPT_SEED", "7")
        _, out = run(["capacity", b])
        assert "seed=7" in out
        # an explicit flag wins over the environment
        _, out = run(["capacity", b, "--seed", "3"])
        assert "seed=3" in out

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
        scale = 1.0 if units == "bits" else math.log(2.0)
        assert doc["gaps"]["ratio_condition"] == pytest.approx(-0.0317392992283 * scale, abs=1e-11)
        screen = doc["vertex_screen"]
        assert screen["first_family_holds"] is False
        assert screen["second_family_holds"] is True
        assert 0.0 <= screen["mixed_output_gap"] < 1e-12
        assert (
            "first family holds: false; second family holds: true; "
            f"mixed output gap: {screen['mixed_output_gap']:.12g}\n"
        ) in out
