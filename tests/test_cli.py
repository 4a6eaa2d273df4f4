"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

from beamauction import Assignment, as_bid_matrix, cli
from beamauction.cli import (
    BidMatrixParseError,
    format_bid_matrix,
    main,
    parse_bid_matrix,
)
from helpers import draw_bids, seeded_rng


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseBidMatrix:
    def test_parses_plain_csv(self):
        bids = parse_bid_matrix("1,3\n2,5\n")
        assert bids.values.tolist() == [[1.0, 3.0], [2.0, 5.0]]

    def test_error_names_row_and_column(self):
        with pytest.raises(BidMatrixParseError, match="row 2, column 2"):
            parse_bid_matrix("1,2\n3,x\n")

    def test_negative_entry_is_rejected_with_location(self):
        with pytest.raises(BidMatrixParseError, match="row 1, column 2"):
            parse_bid_matrix("1,-2\n")

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(BidMatrixParseError, match="row 2 has 3 entries"):
            parse_bid_matrix("1,2\n1,2,3\n")

    def test_empty_file_is_rejected(self):
        with pytest.raises(BidMatrixParseError, match="empty"):
            parse_bid_matrix("\n\n")

    def test_round_trip_is_exact(self):
        rng = seeded_rng(401)
        bids = as_bid_matrix(draw_bids(rng, 5, 3))
        again = parse_bid_matrix(format_bid_matrix(bids))
        assert np.array_equal(again.values, bids.values)


class TestSolveCommand:
    def test_prints_winners_and_total(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,3\n2,5\n")
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,2,3.000000", "2,1,2.000000", "total,5.000000"]

    def test_payments_flag_appends_payment_lines(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,3\n2,5\n")
        assert main(["solve", path, "--payments"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "1,2,3.000000",
            "2,1,2.000000",
            "total,5.000000",
            "payment,1,2,4.000000",
            "payment,2,1,3.000000",
        ]

    def test_degenerate_single_cell(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "5\n")
        assert main(["solve", path, "--payments"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,1,5.000000", "total,5.000000", "payment,1,1,0.000000"]

    def test_parse_error_exits_nonzero_with_location(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,2\n3,x\n")
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert "row 2, column 2" in err
        # A bid above the size limit is refused with one line, not a traceback.
        path = write(tmp_path, "big.csv", "1e308,1.7e308\n1.7e308,1e308\n0,1.5e308\n")
        assert main(["solve", path, "--payments"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bid matrix entries must be finite")
        assert err.count("\n") == 1
        # So is a file that is not UTF-8.
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"1,\xe93\n2,5\n")
        assert main(["solve", str(latin)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin}: 'utf-8' codec") and err.count("\n") == 1

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["solve", "/nonexistent/matrix.csv"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Spreadsheet exports often start a UTF-8 CSV with a byte-order mark.
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,3\n2,5\n")
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,2,3.000000", "2,1,2.000000", "total,5.000000"]

    def test_more_beams_than_terminals_warns_but_solves(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "3,1,2\n")
        assert main(["solve", path]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert captured.out.splitlines() == ["1,2,1.000000", "total,1.000000"]


# sha256 of the report ``beamauction simulate`` writes with every default.
REFERENCE_SWEEP_SHA256 = (
    "db6817e4646ac46693866d397f5b83a95876b993936d48d48b09cdaef73d3cc2"
)


class TestSimulateCommand:
    def test_default_sweep_reproduces_the_reference_report(self, tmp_path):
        out = tmp_path / "ref.csv"
        assert main(["simulate", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_SWEEP_SHA256

    def test_small_sweep_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        args = [
            "simulate",
            "--terminals", "6",
            "--fasb-range", "2..3",
            "--reps", "2",
            "--seed", "7",
            "--out", out,
        ]
        assert main(args) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "n_fasb,mechanism,mean_avg_sbsdc,stddev,replications"
        assert len(lines) == 5
        assert "report written" in capsys.readouterr().out

    def test_single_count_range(self, tmp_path):
        out = str(tmp_path / "r.csv")
        args = ["simulate", "--terminals", "4", "--fasb-range", "2",
                "--reps", "1", "--seed", "1", "--out", out]
        assert main(args) == 0
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 3

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--terminals", "6", "--fasb-range", "2..3",
                "--reps", "3", "--seed", "11"]
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        assert main(args + ["--out", first]) == 0
        assert main(args + ["--out", second]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_file_supplies_settings(self, tmp_path):
        config = {
            "terminals": 5,
            "fasb_range": [2],
            "demand": [60, 90],
            "reps": 2,
            "seed": 13,
        }
        cfg = write(tmp_path, "cfg.json", json.dumps(config))
        out = str(tmp_path / "r.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_whole_number_floats_act_as_ints(self, tmp_path):
        outputs = []
        for number in (int, float):
            config = {"terminals": number(5), "fasb_range": [number(2), 3],
                      "reps": number(2), "seed": number(13)}
            cfg = write(tmp_path, "cfg.json", json.dumps(config))
            out = tmp_path / f"{number.__name__}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "key, texts, numbers",
        [
            ("terminals", ["6", "6.0"], [6, 6.0]),
            ("reps", ["2", "2.0"], [2, 2.0]),
            ("seed", ["7", "7.0"], [7, 7.0]),
            ("capacity", ["120", "120.0"], [120, 120.0]),
            ("fasb_range", ["3", "3.0"], [3, 3.0, [3.0]]),
            ("fasb_range", ["2..3", "2.0..3"], [[2, 3], [2.0, 3.0]]),
        ],
    )
    def test_flag_text_json_number_and_json_string_agree(
        self, tmp_path, key, texts, numbers
    ):
        # One path from every form of a setting to ExperimentConfig: flag
        # text, a JSON number and a JSON string write the same report.
        small = {"terminals": "6", "fasb_range": "2..3", "reps": "2", "seed": "7"}
        flags = []
        for other, text in small.items():
            if other != key:
                flags += ["--" + other.replace("_", "-"), text]
        runs = [["--" + key.replace("_", "-"), text] for text in texts]
        for value in numbers + texts:
            cfg = write(tmp_path, f"cfg{len(runs)}.json", json.dumps({key: value}))
            runs.append(["--config", cfg])
        reports = set()
        for k, run in enumerate(runs):
            out = tmp_path / f"{k}.csv"
            assert main(["simulate", *flags, *run, "--out", str(out)]) == 0
            reports.add(out.read_bytes())
        assert len(reports) == 1

    def test_flags_override_config_file(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps({"seed": 1, "reps": 2}))
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        base = ["simulate", "--config", cfg, "--terminals", "5",
                "--fasb-range", "2"]
        assert main(base + ["--seed", "99", "--out", out_a]) == 0
        assert main(base + ["--seed", "100", "--out", out_b]) == 0
        assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()

    def test_unwritable_output_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "r.csv")
        args = ["simulate", "--terminals", "4", "--fasb-range", "2", "--reps", "1"]
        assert main(args + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", json.dumps({"terminal_count": 5}))
        assert main(["simulate", "--config", cfg]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_settings_exit_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        assert main(["simulate", "--reps", "0", "--out", out]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert main(["simulate", "--demand", "90,50", "--out", out]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert main(["simulate", "--fasb-range", "5..2", "--out", out]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        for flag, value in [
            ("--capacity", "inf"), ("--capacity", "nan"), ("--demand", "50,inf"),
            ("--reps", "abc"), ("--capacity", "abc"), ("--reps", "2.5"),
        ]:
            assert main(["simulate", flag, value, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid configuration") and err.count("\n") == 1
        for config in [
            {"demand": [60]},
            {"reps": [1]},
            [1],
            {"reps": 2.5},
            {"fasb_range": [2.7, 3]},
            {"terminals": 12.9},
            {"seed": 1.5},
            {"reps": 2.5, "fasb_range": [2.7, 3], "terminals": 12.9},
            {"fasb_range": 3.5},
            {"terminal_count": 5},
        ]:
            cfg = write(tmp_path, "cfg.json", json.dumps(config))
            assert main(["simulate", "--config", cfg, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid configuration") and err.count("\n") == 1


class TestVerifyCommand:
    def test_small_verification_passes(self, capsys):
        assert main(["verify", "--max-dim", "4", "--cases", "40", "--seed", "2"]) == 0
        assert "40/40 passed" in capsys.readouterr().out

    def test_failed_checks_exit_nonzero(self, monkeypatch, capsys):
        solve = cli.solve_rectangular

        def off_by_one(bids, dummy_cost=None):
            right = solve(bids, dummy_cost)
            return Assignment(right.pairs, right.total_cost + 1.0)

        monkeypatch.setattr(cli, "solve_rectangular", off_by_one)
        assert main(["verify", "--max-dim", "3", "--cases", "30", "--seed", "2"]) == 1
        captured = capsys.readouterr()
        fails = captured.err.splitlines()
        assert len(fails) == 20  # the report stops at 20 failed cases
        assert all(line.startswith("FAIL case ") for line in fails)
        assert "solver total" in fails[0]
        assert captured.out.splitlines() == ["0/30 passed"]

    def test_max_dim_above_oracle_scope_is_an_error(self, capsys):
        assert main(["verify", "--max-dim", "9"]) == 2
        assert "oracle limit" in capsys.readouterr().err

    def test_zero_cases_is_a_vacuous_pass_with_warning(self, capsys):
        assert main(["verify", "--cases", "0"]) == 0
        captured = capsys.readouterr()
        assert "0/0 passed" in captured.out
        assert "warning" in captured.err
