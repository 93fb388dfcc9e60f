import copy
import io
import json
import os
import select
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import parse_sweep_csv
from spatialbsa import cli
from spatialbsa.bsa import QUALITY_FIELDS, outcome_distribution, quality
from spatialbsa.cavity import operating_point
from spatialbsa.qsdc import ChannelModel, EveModel, QsdcConfig, run_session, session_columns
from spatialbsa.register import BellState

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def close_pipe_early(argv, first_line, lines, fifo=None):
    """Run the command with its output piped, block-buffered as in a shell
    pipeline, and leave after ``lines`` lines, as ``| head -1`` does, or
    before the first, as ``| true`` does: it must exit 0 with nothing on stderr,
    where every ResourceWarning would show.  The output goes to stdout, or,
    given ``fifo``, a named pipe, to ``--out fifo``, and stdout stays empty."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = ["--out", str(fifo)] if fifo else []
    proc = subprocess.Popen(
        [sys.executable, "-W", "always::ResourceWarning", "-m", "spatialbsa.cli", *argv, *out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    reader = proc.stdout
    try:
        if fifo:
            # Opened without blocking, so a command that never opens the pipe
            # fails the wait below instead of hanging the open; the reads
            # then block until the command writes.
            fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            reader = os.fdopen(fd, "rb")
            assert select.select([fd], [], [], 120)[0], "the command wrote nothing"
            os.set_blocking(fd, True)
        for _ in range(lines):
            assert reader.readline() == first_line
        reader.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
        if fifo:
            assert proc.stdout.read() == b""
    finally:
        reader.close()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class TestBsaCommand:
    def test_deterministic_classification_counts(self, capsys):
        code, out, _ = run_cli(
            ["bsa", "psi-", "--ideal", "--trials", "200", "--seed", "7"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"phi+": 0, "phi-": 0, "psi+": 0, "psi-": 200}
        assert report["seed"] == 7
        assert report["mean_success_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_single_trial_detector_contract(self, capsys):
        code, out, _ = run_cli(["bsa", "phi+", "--trials", "1", "--seed", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        hits = [pair for pair, n in report["detectors"].items() if n == 1]
        assert hits[0] in ("c1d1", "c2d2")
        assert report["spin_changed_count"] == 0

    def test_missing_state_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bsa"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_state_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bsa", "sigma+"])
        assert exc.value.code == 1

    def test_lossy_mode_reports_attenuation(self, capsys):
        code, out, _ = run_cli(
            ["bsa", "phi+", "--lossy", "--ks-over-k", "0.7", "--trials", "20",
             "--seed", "5"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["ideal"] is False
        assert 0.0 < report["mean_success_probability"] < 1.0

    @pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
    @pytest.mark.parametrize("label", list(BellState), ids=lambda label: label.value)
    def test_mean_success_is_the_distribution_success(self, capsys, label, lossy):
        # Every trial has the same success probability, so that is the mean, bit for bit.
        code, out, _ = run_cli(
            ["bsa", label.value, "--lossy" if lossy else "--ideal", "--g-over-ktot", "1.3",
             "--ks-over-k", "0.3", "--trials", "37", "--seed", "11"],
            capsys,
        )
        assert code == 0
        params = operating_point(1.3, 0.3) if lossy else None
        want = outcome_distribution(label, params).success
        assert json.loads(out)["mean_success_probability"] == want

    def test_absent_seed_is_drawn_and_recorded(self, capsys):
        _, out_a, _ = run_cli(["bsa", "phi+", "--trials", "1"], capsys)
        _, out_b, _ = run_cli(["bsa", "phi+", "--trials", "1"], capsys)
        seed_a = json.loads(out_a)["seed"]
        seed_b = json.loads(out_b)["seed"]
        assert isinstance(seed_a, int)
        assert seed_a != seed_b

    def test_trials_above_the_bound_give_one_error_line(self, capsys, monkeypatch):
        # The count is rejected before the analyzer runs; were the bound
        # missing, the stub stops the command before its block draw.
        def no_draw(*args, **kwargs):
            raise AssertionError("the trials bound was not checked")

        monkeypatch.setattr(cli, "outcome_distribution", no_draw)
        argv = ["bsa", "phi+", "--trials", str(cli.MAX_BSA_TRIALS + 1), "--seed", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: trials must be at most {cli.MAX_BSA_TRIALS}\n"

    def test_trials_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BSA_TRIALS", 5)
        assert run_cli(["bsa", "phi+", "--trials", "5", "--seed", "1"], capsys)[0] == 0
        assert run_cli(["bsa", "phi+", "--trials", "6", "--seed", "1"], capsys)[0] == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bsa.json"
        code, out, _ = run_cli(
            ["bsa", "psi+", "--trials", "5", "--seed", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["counts"]["psi+"] == 5


class TestSweepCommand:
    def run_sweep(self, capsys, extra=()):
        argv = ["sweep", "--seed", "0", *extra]
        return run_cli(argv, capsys)

    def test_header_and_metadata(self, capsys):
        code, out, _ = self.run_sweep(capsys, ["--steps", "2", "--ks", "0"])
        assert code == 0
        lines = out.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert any("gamma=" in line and "detuning=" in line for line in comments)
        assert any("eta2" in line for line in comments)
        assert any("seed=0" in line for line in comments)
        assert cli.CSV_HEADER in lines

    def test_rows_ordered_by_leakage_then_coupling(self, capsys):
        code, out, _ = self.run_sweep(
            capsys, ["--steps", "4", "--ks", "0.7,0,0.3"]
        )
        assert code == 0
        rows = parse_sweep_csv(out)
        keys = [(row["ks_over_k"], row["g_over_ktot"]) for row in rows]
        assert keys == sorted(keys)
        assert [k[0] for k in keys] == [0.0] * 4 + [0.3] * 4 + [0.7] * 4

    def test_anchor_rows_match_quoted_values(self, capsys):
        code, out, _ = self.run_sweep(
            capsys,
            ["--g-min", "2.4", "--g-max", "3.0", "--steps", "2", "--ks", "0,0.7"],
        )
        assert code == 0
        rows = {
            (row["ks_over_k"], row["g_over_ktot"]): row
            for row in parse_sweep_csv(out)
        }
        tight = rows[(0.0, 2.4)]
        assert tight["F1"] == pytest.approx(0.9999, abs=1e-4)
        assert tight["eta1"] == pytest.approx(0.981, abs=1e-3)
        leaky = rows[(0.7, 2.4)]
        assert leaky["F1"] == pytest.approx(0.696, abs=5e-3)
        assert leaky["eta1"] == pytest.approx(0.532, abs=5e-3)

    def test_round_trip_is_exact(self, capsys):
        code, out, _ = self.run_sweep(
            capsys, ["--steps", "5", "--ks", "0,0.3"]
        )
        assert code == 0
        rows = parse_sweep_csv(out)
        spec = cli.SweepSpec(g_min=0.1, g_max=3.0, steps=5, ks_list=(0.0, 0.3))
        points = cli.sweep_points(spec)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            for column in cli.CSV_HEADER.split(","):
                assert row[column] == getattr(point, column)

    def test_zero_coupling_row_uses_cold_response(self, capsys):
        code, out, _ = self.run_sweep(
            capsys, ["--g-min", "0", "--g-max", "1", "--steps", "2", "--ks", "0.3"]
        )
        assert code == 0
        row = parse_sweep_csv(out)[0]
        assert row["g_over_ktot"] == 0.0
        assert row["abs_rh"] == pytest.approx(row["abs_r0"], abs=1e-12)

    def test_rows_match_direct_evaluation(self, capsys):
        code, out, _ = self.run_sweep(capsys, ["--steps", "3", "--ks", "0,0.7"])
        assert code == 0
        for row in parse_sweep_csv(out):
            point = quality(operating_point(row["g_over_ktot"], row["ks_over_k"]))
            assert row["F1"] == point.F1

    def test_invalid_grid_exits_one(self, capsys):
        code, _, err = self.run_sweep(capsys, ["--steps", "1"])
        assert code == 1
        assert "steps" in err

    def test_unreadable_ks_item_is_named(self, capsys):
        code, out, err = self.run_sweep(capsys, ["--ks", "0,abc"])
        assert (code, out) == (1, "")
        assert err == "error: ks_over_k must be a number, got 'abc'\n"

    def test_oversized_grid_gives_one_error_line(self, capsys):
        # Rejected before any grid point exists; unchecked, numpy would fail
        # to allocate 3e15 rows and print a traceback.
        code, out, err = self.run_sweep(capsys, ["--steps", "1000000000000000"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "rows" in err

    def test_grid_bound_counts_steps_times_ks_values(self):
        half = cli.MAX_SWEEP_ROWS // 2
        cli.SweepSpec(g_min=0.1, g_max=3.0, steps=half, ks_list=(0.0, 0.5))
        with pytest.raises(ValueError, match="at most"):
            cli.SweepSpec(g_min=0.1, g_max=3.0, steps=half + 1, ks_list=(0.0, 0.5))

    @pytest.mark.parametrize("steps", [3.0, np.float64(3.0), True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            cli.SweepSpec(g_min=0.1, g_max=3.0, steps=steps, ks_list=(0.0,))

    @pytest.mark.parametrize(
        "bad",
        [
            {"g_min": "1"},
            {"g_max": None},
            {"gamma": True},
            {"detuning": "0.5"},
            {"ks_list": (0.0, "0.3")},
            {"g_min": 0.0, "g_max": 10**400},
            {"g_min": 0.0, "ks_list": (10**400,)},
        ],
    )
    def test_non_number_fields_rejected(self, bad):
        kwargs = {"g_min": 0.1, "g_max": 3.0, "steps": 3, "ks_list": (0.0,), **bad}
        with pytest.raises(ValueError, match="must be a number"):
            cli.SweepSpec(**kwargs)

    @pytest.mark.parametrize("ks_list", [5, 0.3])
    def test_non_sequence_ks_list_rejected(self, ks_list):
        with pytest.raises(ValueError, match="ks_list must be a tuple or list"):
            cli.SweepSpec(0.1, 3.0, 3, ks_list)

    def test_numpy_integer_steps_accepted(self):
        spec = cli.SweepSpec(g_min=0.1, g_max=3.0, steps=np.int64(3), ks_list=(0.0,))
        assert len(cli.sweep_points(spec)) == 3

    def test_unwritable_path_exits_one(self, capsys):
        code, _, err = self.run_sweep(
            capsys,
            ["--steps", "2", "--ks", "0", "--out", "/nonexistent-dir/sweep.csv"],
        )
        assert code == 1
        assert "cannot write" in err

    def test_out_dir_env_var_applies_to_relative_paths(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        code, _, _ = self.run_sweep(
            capsys, ["--steps", "2", "--ks", "0", "--out", "nested.csv"]
        )
        assert code == 0
        assert (tmp_path / "nested.csv").exists()

    def test_out_dir_env_var_ignores_absolute_paths(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = self.run_sweep(
            capsys, ["--steps", "2", "--ks", "0", "--out", str(target)]
        )
        assert code == 0
        assert target.exists()

    def test_out_file_and_stdout_get_the_same_bytes(self, tmp_path, capsys):
        # Each block is two full chunks of rows and a short one.
        steps = 2 * cli._CHUNK_ROWS + 5
        grid = ["--steps", str(steps), "--ks", "0,0.7"]
        code, out, _ = self.run_sweep(capsys, grid)
        assert code == 0
        target = tmp_path / "sweep.csv"
        code, _, _ = self.run_sweep(capsys, [*grid, "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == out.encode("ascii")
        assert len(parse_sweep_csv(out)) == 2 * steps

    @pytest.mark.parametrize(
        "extra",
        [["--steps", "1"], ["--g-min", "0", "--g-max", "1e308", "--ks", "1"]],
        ids=["spec", "sweep_points"],
    )
    def test_failed_sweep_leaves_the_out_file_untouched(self, tmp_path, capsys, extra):
        target = tmp_path / "sweep.csv"
        target.write_text("earlier output\n")
        code, out, err = self.run_sweep(capsys, [*extra, "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert target.read_text() == "earlier output\n"

    @pytest.mark.parametrize("steps, lines", [(20_000, 1), (20_000, 0), (3, 0)])
    def test_reader_closing_the_pipe_ends_quietly(self, steps, lines):
        # 20 000 steps' CSV, about 9 MB, is far more than a pipe holds.
        close_pipe_early(["sweep", "--steps", str(steps), "--seed", "1"],
                         b"# spatial-mode analyzer quality sweep\n", lines)

    @pytest.mark.parametrize("lines", [1, 0])
    def test_reader_closing_an_out_pipe_ends_quietly(self, tmp_path, lines):
        # --out naming a pipe whose reader leaves ends as stdout's does.
        fifo = tmp_path / "sweep.csv"
        os.mkfifo(fifo)
        close_pipe_early(["sweep", "--steps", "20000", "--seed", "1"],
                         b"# spatial-mode analyzer quality sweep\n", lines, fifo)

    @pytest.mark.parametrize(
        "steps", [cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 3])
    def test_no_bytes_of_an_earlier_chunk_are_left(self, steps):
        # The writer reuses its buffers.  Block 0 opens with a chunk of long texts
        # (17 digits at exponent -4, and a long abs_r0); every later row is short
        # ("1", "0.5"), and block 1 also takes _g17's slow path (1e16 and up).
        points = np.recarray(2 * steps, [(name, float) for name in QUALITY_FIELDS])
        rows = np.arange(2 * steps)
        short = np.where(rows % 2 == 0, 1.0, 0.5)
        long = 1e-4 + np.random.default_rng(steps).random(2 * steps) * 9e-4
        for name in QUALITY_FIELDS:
            points[name] = np.where(rows < min(steps, cli._CHUNK_ROWS), long, short)
        points["ks_over_k"] = np.repeat([0.0, 0.7], steps)
        points["abs_r0"] = np.repeat([0.98765432109876543, 0.5], steps)
        points["F2"][[steps, 2 * steps - 1]] = [1e16, 2.5e300]
        out = io.StringIO()
        cli.format_sweep_csv(points, cli.SweepSpec(0.1, 3.0, steps, (0.0, 0.7)), 1, out)
        lines = out.getvalue().splitlines()[5:]
        assert lines == [",".join("%.17g" % v for v in row) for row in points.tolist()]
        assert len(lines[0]) > len(lines[-1]) + 80

    def test_digit_table_is_the_formatted_groups(self):
        # _g17's digit groups: "0000" ... "9999", then each again with its
        # trailing zeros as NUL, four ASCII bytes to a uint32 entry.
        texts = [f"{i:04d}" for i in range(10_000)]
        want = "".join(texts) + "".join(text.rstrip("0").ljust(4, "\0") for text in texts)
        assert cli._DIGITS.dtype == np.uint32
        assert cli._DIGITS.tobytes() == want.encode("ascii")

    def test_peak_memory_per_row(self, tmp_path):
        # The text goes out a chunk at a time, so the peak is sweep_points'
        # 64 bytes a row of records beside one ks block's quality_at.
        steps = 20_000
        argv = ["sweep", "--steps", str(steps), "--ks", "0,0.3,0.7", "--seed", "1",
                "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0  # the first call's imports and caches are not counted
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (3 * steps) < 89  # 78.2 measured (Python 3.11, NumPy 2.4)


class TestQsdcCommand:
    @pytest.mark.parametrize("lines", [1, 0])
    @pytest.mark.parametrize(
        "extra", [[], ["--eve", "intercept_resend"]], ids=["clean", "aborted"])
    def test_reader_closing_the_pipe_ends_quietly(self, extra, lines):
        # 20 000 pairs' report, about 3.5 MB (aborted: 1.6 MB), is far more than a
        # pipe holds.  A session that aborts, exit code 2 in full, exits 0 too.
        argv = ["qsdc", "--pairs", "20000", "--sample-fraction", "0.5", "--message", "01",
                "--seed", "1", *extra]
        close_pipe_early(argv, b"{\n", lines)

    @staticmethod
    def traced_peak(argv, code):
        assert cli.main(argv) == code  # the first call's imports and caches are not counted
        tracemalloc.start()
        try:
            assert cli.main(argv) == code
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_pair(self, tmp_path):
        # The report goes out a chunk at a time, the pairs are ids into a
        # table of their distinct rows, and the trip reader converts its
        # words in place, so the peak is phase 2's trip draws beside the ids.
        pairs = 20_000
        argv = ["qsdc", "--pairs", str(pairs), "--message", "01" * (pairs * 9 // 20),
                "--seed", "1", "--out", str(tmp_path / "session.json")]
        # 134 measured; real pair arrays made it 160, complex pairs, a second
        # word buffer and preparation's trips kept to the end 251, a weight
        # table of all rows 397, one (m, 64) contraction 1 583.
        assert self.traced_peak(argv, 0) / pairs < 150

    def test_peak_memory_per_pair_when_eve_aborts(self, tmp_path):
        # The session ends after phase 1, so the peak is preparation's trips
        # beside Eve's picks, which gather nothing when she hits every pair.
        pairs = 20_000
        argv = ["qsdc", "--pairs", str(pairs), "--message", "01", "--seed", "1",
                "--eve", "intercept_resend", "--sample-fraction", "0.8",
                "--out", str(tmp_path / "session.json")]
        # 94 measured; gathering the hit pairs made it 110, complex pair
        # arrays gathered whole with preparation's trips kept through phase 1
        # 216.
        assert self.traced_peak(argv, 2) / pairs < 110

    def test_plain_message_round_trip(self, capsys):
        code, out, _ = run_cli(["qsdc", "--message", "1001", "--seed", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["decoded_bits"] == "1001"
        assert payload["report"]["phase1_qber"] == 0.0
        assert payload["config"]["seed"] == 5

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in files:
            code, _, _ = run_cli(
                ["qsdc", "--message", "1001", "--seed", "5", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_interception_aborts_with_exit_two(self, capsys):
        code, out, _ = run_cli(
            [
                "qsdc", "--message", "1001", "--eve", "intercept_resend",
                "--pairs", "2000", "--sample-fraction", "0.5", "--seed", "9",
            ],
            capsys,
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["report"]["aborted"] is True
        assert payload["report"]["decoded_bits"] == ""
        assert abs(payload["report"]["phase1_qber"] - 0.25) < 0.05

    def test_malformed_config_file_exits_one(self, tmp_path, capsys):
        # A file that does not decode is named once, before the decoder's words.
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(["qsdc", "--config", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: Expecting property name enclosed in double quotes:"
                       " line 1 column 2 (char 1)\n")

    def test_undecodable_config_file_is_named_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        code, out, err = run_cli(["qsdc", "--config", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count(str(bad)) == 1 and err.count("\n") == 1

    def test_missing_config_file_is_named_once(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(["qsdc", "--config", str(missing)], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"message_bits": "01", "wormhole": True}))
        code, _, err = run_cli(["qsdc", "--config", str(bad)], capsys)
        assert code == 1 and "wormhole" in err

    def test_missing_message_exits_one(self, capsys):
        code, _, err = run_cli(["qsdc", "--seed", "1"], capsys)
        assert code == 1
        assert "message" in err

    def test_infeasible_flags_exit_one(self, capsys):
        code, _, err = run_cli(
            ["qsdc", "--message", "01" * 40, "--pairs", "10", "--seed", "1"], capsys
        )
        assert code == 1
        assert "infeasible" in err

    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "session.json"
        config.write_text(
            json.dumps(
                {
                    "message_bits": "0000",
                    "pair_count": 64,
                    "sample_fraction": 0.25,
                    "seed": 77,
                }
            )
        )
        code, out, _ = run_cli(
            ["qsdc", "--config", str(config), "--message", "1111"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["message_bits"] == "1111"
        assert payload["config"]["pair_count"] == 64
        assert payload["config"]["sample_fraction"] == 0.25
        assert payload["config"]["seed"] == 77
        assert payload["report"]["decoded_bits"] == "1111"

    def test_config_file_eve_section(self, tmp_path, capsys):
        config = tmp_path / "eve.json"
        config.write_text(
            json.dumps(
                {
                    "message_bits": "01",
                    "pair_count": 1000,
                    "sample_fraction": 0.5,
                    "eve_model": {"kind": "intercept_resend", "fraction": 1.0},
                    "seed": 12,
                }
            )
        )
        code, out, _ = run_cli(["qsdc", "--config", str(config)], capsys)
        assert code == 2
        assert json.loads(out)["report"]["aborted"] is True

    def test_numpy_scalars_in_a_config_write_the_same_bytes(self):
        # A config accepts numpy's ints and floats and keeps each as a Python
        # number, which the report's encoder can write.
        def report(number, whole):
            config = QsdcConfig(
                "0110", whole(40), number(0.5), EveModel.intercept_resend(number(0.25)),
                ChannelModel(number(0.125), number(0.0)), seed=whole(3),
                qber_abort_threshold=number(1.0),
            )
            assert {type(v) for v in (config.pair_count, config.seed)} == {int}
            out = io.StringIO()
            cli.format_qsdc_report(config, session_columns(config), out)
            return out.getvalue()

        want = report(float, int)
        for number, whole in ((np.float32, np.int64), (np.float64, np.uint64),
                              (np.float16, np.int32)):
            assert report(number, whole) == want

    def test_auto_pair_count_is_recorded(self, capsys):
        code, out, _ = run_cli(["qsdc", "--message", "01", "--seed", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["pair_count"] >= 32

    def test_auto_pair_count_is_the_library_one(self, capsys):
        code, out, _ = run_cli(["qsdc", "--message", "0110", "--seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["pair_count"] == QsdcConfig("0110").pair_count

    def test_tiny_sample_fraction_is_sized_to_sample_a_pair(self, capsys):
        code, out, err = run_cli(
            ["qsdc", "--message", "01", "--sample-fraction", "0.01", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["config"]["pair_count"] == 51
        assert sum(e["event"] == "phase1_sample" for e in payload["report"]["transcript"]) == 1

    def test_intercept_resend_meets_every_photon_by_default(self, tmp_path, capsys):
        config = tmp_path / "eve.json"
        config.write_text('{"eve_model": {"kind": "intercept_resend"}}')
        fractions = [EveModel("intercept_resend").fraction, EveModel.intercept_resend().fraction]
        base = ["qsdc", "--message", "01" * 20, "--pairs", "400", "--seed", "3"]
        for argv in (["--eve", "intercept_resend"], ["--config", str(config)]):
            code, out, _ = run_cli([*base, *argv], capsys)
            assert code == 2
            fractions.append(json.loads(out)["config"]["eve_model"]["fraction"])
        assert fractions == [1.0] * 4
        report = run_session(QsdcConfig(message_bits="01" * 20, pair_count=400, seed=3,
                                        eve_model=EveModel("intercept_resend")))
        assert report.aborted and report.phase1_qber == 0.15


class TestParser:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "precedence" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1"])
    @pytest.mark.parametrize(
        "argv", [["bsa", "phi+", "--lossy", "--trials", "3"], ["sweep", "--steps", "3"]]
    )
    def test_negative_exponent_form_is_a_value(self, argv, value, capsys):
        # argparse before 3.13 read these as options unless joined with "=".
        joined = run_cli([*argv, "--seed", "1", f"--detuning={value}"], capsys)
        assert joined[0] == 0
        assert run_cli([*argv, "--seed", "1", "--detuning", value], capsys) == joined

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    @pytest.mark.parametrize(
        "argv, flag, message",
        [(["bsa", "phi+", "--trials", "2"], "--detuning", "detuning must be finite"),
         (["sweep"], "--g-min", "sweep ranges must be finite")],
        ids=["bsa_detuning", "sweep_g_min"],
    )
    def test_negative_inf_and_nan_are_values(self, argv, flag, message, value, capsys):
        # argparse read these as options unless joined with "=".
        joined = run_cli([*argv, "--seed", "1", f"{flag}={value}"], capsys)
        assert joined == (1, "", f"error: {message}\n")
        assert run_cli([*argv, "--seed", "1", flag, value], capsys) == joined


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bsa", "phi+", "--seed", "-1"], "seed must fit in 64 bits"),
            (["bsa", "phi+", "--seed", "1" + 400 * "0"], "seed must fit in 64 bits"),
            (["bsa", "phi+", "--seed", str(2**64)], "seed must fit in 64 bits"),
            (["sweep", "--seed", "-1"], "seed must fit in 64 bits"),
            (["sweep", "--seed", str(2**64)], "seed must fit in 64 bits"),
            (["sweep", "--seed", "-1", "--steps", "1"], "seed must fit in 64 bits"),
            (["bsa", "phi+", "--lossy", "--gamma", "0", "--detuning", "0",
              "--g-over-ktot", "0"],
             "degenerate parameters: hot-cavity response is undefined"),
            (["bsa", "phi+", "--lossy", "--g-over-ktot", "1e308", "--ks-over-k", "1e308"],
             "g must be finite"),
            (["bsa", "phi+", "--g-over-ktot", "inf"], "g_over_ktot must be finite"),
            (["bsa", "phi+", "--lossy", "--detuning", "nan"], "detuning must be finite"),
            (["bsa", "phi+", "--lossy", "--g-over-ktot", "0", "--ks-over-k", "1",
              "--detuning", "0"], "no amplitude reaches the detectors"),
            (["sweep", "--g-max", "1e308", "--ks", "1"], "g must be finite"),
            (["sweep", "--gamma", "0", "--detuning", "0", "--g-min", "0"],
             "degenerate parameters: hot-cavity response is undefined"),
            (["sweep", "--ks", "1", "--detuning", "0", "--g-min", "0"],
             "degenerate parameters: the fidelities need nonzero reflection"),
            (["bsa", "phi+", "--gamma", "-1e-3"], "gamma must be nonnegative"),
            (["bsa", "phi+", "--g-over-ktot", "-1"], "g_over_ktot must be nonnegative"),
            (["bsa", "phi+", "--ks-over-k", "-1"], "ks_over_k must be nonnegative"),
            (["bsa", "phi+", "--ks-over-k", "inf"], "ks_over_k must be finite"),
            (["bsa", "phi+", "--ks-over-k", "nan"], "ks_over_k must be finite"),
        ],
        ids=["negative_seed", "huge_seed", "seed_2_64", "sweep_negative_seed",
             "sweep_seed_2_64", "sweep_seed_before_grid", "degenerate_cavity", "overflowing_coupling",
             "infinite_coupling", "nan_detuning", "no_surviving_amplitude",
             "sweep_overflowing_coupling", "sweep_degenerate_cavity",
             "sweep_no_reflection",
             "negative_gamma_exponent_form", "negative_coupling", "negative_leakage",
             "infinite_leakage", "nan_leakage"],
    )
    def test_bad_values_give_one_error_line(self, argv, message, capsys):
        if argv[0] == "bsa":
            argv = [*argv, "--trials", "2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv", [["bsa", "phi+", "--lossy", "--trials", "2"], ["sweep", "--steps", "3", "--ks", "0"]],
        ids=["overflowing_response", "sweep_overflowing_response"],
    )
    def test_huge_rates_leave_the_probe_unscattered(self, argv, capsys):
        # Far off resonance both reflections are 1 to within 1e-300, where
        # D_x * D_c overflows; as D_x * D_c is never formed, these run.
        code, out, err = run_cli([*argv, "--detuning", "1e300", "--gamma", "1e10", "--seed", "1"],
                                 capsys)
        assert (code, err) == (0, "")
        if argv[0] == "sweep":
            figures = [(1.0, 1.0, 1.0, 1.0, 1.0, 1.5)] * 3  # abs_r0, abs_rh, F1, eta1, F2, eta2
            assert [tuple(row.values())[2:] for row in parse_sweep_csv(out)] == figures
        else:
            report = json.loads(out)
            assert report["mean_success_probability"] == pytest.approx(1.0, rel=1e-14)
            assert report["counts"]["phi+"] == 0  # equal phases: no parity to read

    def test_critical_coupling_reflects_at_the_smallest_couplings(self, capsys):
        # |r_hot| = g^2 / |kappa D_x + g^2| at ks = 1 and zero detuning, where
        # |r_0| = 0: the fidelities are the ratio-0 values, not an error.
        code, out, err = run_cli(["sweep", "--ks", "1", "--detuning", "0", "--g-min", "1e-20",
                                  "--g-max", "1e-19", "--steps", "3", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        rows = parse_sweep_csv(out)
        assert [row["abs_rh"] for row in rows] == pytest.approx(
            [(2.0 * row["g_over_ktot"]) ** 2 / 0.05 for row in rows], rel=4 * 2.0**-52)
        assert [(row["F1"], row["F2"]) for row in rows] == [(0.25, 0.375)] * 3

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--g-min", "1e-200", "--g-max", "1e-199", "--steps", "3"],
         ["bsa", "phi+", "--lossy", "--g-over-ktot", "1e-200"]],
        ids=["sweep", "bsa"],
    )
    def test_transparent_dot_reflects_at_underflowing_coupling(self, argv, capsys):
        # With gamma = detuning = 0 the dot drops out and r_hot is 1 at every
        # g > 0, even where g^2 underflows to 0; only g = 0 is degenerate.
        code, out, err = run_cli([*argv, "--gamma", "0", "--detuning", "0", "--seed", "1"],
                                 capsys)
        assert (code, err) == (0, "")
        if argv[0] == "sweep":
            assert [row["abs_rh"] for row in parse_sweep_csv(out)] == [1.0] * 9  # 3 ks values
        else:
            assert json.loads(out)["mean_success_probability"] > 0.0

    @pytest.mark.parametrize(
        "argv", [["bsa", "phi+", "--trials", "2"], ["sweep", "--steps", "2"], ["qsdc", "--message", "01"]]
    )
    def test_largest_seed_is_accepted(self, argv, capsys):
        # Every command takes the seeds 0 <= seed < 2**64 and records them.
        code, out, _ = run_cli([*argv, "--seed", str(2**64 - 1)], capsys)
        assert code == 0
        assert str(2**64 - 1) in out


class TestQsdcErrorPaths:
    @pytest.mark.parametrize(
        "argv, config_text, message",
        [
            (["--sample-fraction", "1.0"], None, "sample_fraction must lie strictly"),
            (["--sample-fraction", "nan"], None, "sample_fraction must lie strictly"),
            ([], '{"message_bits": "0101", "pair_count": 1e400}', "infinity"),
            ([], '{"message_bits": "0101", "seed": 1e400}', "infinity"),
            (["--seed", "1" + 400 * "0"], None, "seed must fit in 64 bits"),
            (["--seed", "-1"], None, "seed must fit in 64 bits"),
            (["--pairs", "400", "--eve", "intercept_resend", "--qber-threshold", "nan",
              "--seed", "3"], None, "qber_abort_threshold"),
            (["--pairs", "40", "--qber-threshold", "inf", "--seed", "3"], None,
             "qber_abort_threshold must be finite"),
            ([], '{"message_bits": "0101", "qber_abort_threshold": 1e400}',
             "qber_abort_threshold must be finite"),
            (["--sample-fraction", "0.9999999999999999"], None,
             "a 4-bit message at sample_fraction 0.9999999999999999 needs more than 1000000"
             " pairs; set pair_count (--pairs)"),
            (["--message", "01x", "--sample-fraction", "0.9999999"], None,
             "message_bits must be a nonempty string of 0s and 1s"),
            (["--pairs", "1000001"], None, "pair_count must lie between 1 and 1000000"),
            ([], '{"message_bits": "0101", "pair_count": 1e300}', "pair_count must lie"),
            ([], '{"message_bits": "0101", "pair_count": 63.9}', "pair_count must be a whole"),
            ([], '{"message_bits": "0101", "seed": 7.8}', "seed must be a whole"),
            ([], '{"message_bits": "0101", "pair_count": true}', "pair_count must be a whole"),
            ([], '{"message_bits": "0101", "seed": false}', "seed must be a whole"),
            ([], '{"message_bits": "0101", "eve_model": {"knd": "intercept_resend"}}',
             "unknown eve_model keys: ['knd']"),
            ([], '{"message_bits": "0101", "channel_model": {"mode_flip": 0.5}}',
             "unknown channel_model keys: ['mode_flip']"),
            ([], '{"message_bits": "0101", "eve_model": "x"}',
             "eve_model must be a JSON object"),
            ([], '{"message_bits": "0101", "channel_model": [["mode_flip_prob", 0.5]]}',
             "channel_model must be a JSON object"),
            ([], "[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
            ([], '{"sample_fraction": "0.2"}', 'sample_fraction must be a number, got "0.2"'),
            ([], '{"sample_fraction": [0.2]}', "sample_fraction must be a number, got an array"),
            ([], '{"sample_fraction": 1' + 400 * "0" + "}", "sample_fraction: int too large"),
            ([], '{"qber_abort_threshold": "1e9"}', "qber_abort_threshold must be a number"),
            ([], '{"pair_count": "64"}', 'pair_count must be a whole number, got "64"'),
            ([], '{"eve_model": {"kind": "intercept_resend", "fraction": "0.5"}}',
             "eve_model.fraction must be a number"),
            ([], '{"eve_model": {"kind": {}}}', "eve_model.kind must be a string, got an object"),
            ([], '{"channel_model": {"mode_flip_prob": true}}',
             "channel_model.mode_flip_prob must be a number, got true"),
        ],
        ids=["unit_sample_fraction", "nan_sample_fraction", "infinite_pair_count",
             "infinite_seed", "huge_seed", "negative_seed", "nan_qber_threshold",
             "infinite_qber_threshold", "infinite_config_qber_threshold", "huge_auto_pair_count",
             "bad_message_at_huge_auto_pair_count", "huge_flag_pair_count", "huge_pair_count", "fractional_pair_count", "fractional_seed",
             "boolean_pair_count", "boolean_seed", "misspelled_eve_key",
             "misspelled_channel_key", "string_eve_model", "list_channel_model",
             "deep_nesting", "string_sample_fraction", "list_sample_fraction",
             "huge_int_sample_fraction", "string_qber_threshold", "string_pair_count",
             "string_eve_fraction", "object_eve_kind", "boolean_mode_flip"],
    )
    def test_bad_values_give_one_error_line(
        self, argv, config_text, message, tmp_path, capsys
    ):
        argv = ["qsdc", "--message", "0101", *argv]
        if config_text is not None:
            config = tmp_path / "session.json"
            config.write_text(config_text)
            argv += ["--config", str(config)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err

    def test_integral_config_numbers_are_accepted(self, tmp_path, capsys):
        config = tmp_path / "session.json"
        config.write_text('{"message_bits": "0101", "pair_count": 64.0, "seed": 1e3}')
        code, out, _ = run_cli(["qsdc", "--config", str(config)], capsys)
        assert code == 0
        resolved = json.loads(out)["config"]
        assert (resolved["pair_count"], resolved["seed"]) == (64, 1000)
        assert type(resolved["pair_count"]) is int and type(resolved["seed"]) is int

    def test_number_message_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "session.json"
        config.write_text('{"message_bits": 1010}')
        code, out, err = run_cli(["qsdc", "--config", str(config)], capsys)
        assert (code, out, err) == (1, "", "error: message_bits must be a string, got 1010\n")

    def test_null_keys_count_as_absent(self, tmp_path, capsys):
        nulls = tmp_path / "nulls.json"
        nulls.write_text(
            json.dumps(
                {
                    "message_bits": "0101",
                    "pair_count": None,
                    "sample_fraction": None,
                    "seed": 4,
                    "qber_abort_threshold": None,
                    "eve_model": {"kind": None, "fraction": None},
                    "channel_model": {"mode_flip_prob": None, "phase_flip_prob": None},
                }
            )
        )
        plain = tmp_path / "plain.json"
        plain.write_text('{"message_bits": "0101", "seed": 4}')
        runs = [run_cli(["qsdc", "--config", str(path)], capsys) for path in (nulls, plain)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


# One valid value for every settable key, by section, and the file both runs
# of a key share (with that key left out of the flag run's file).
SETTINGS = {
    "config": {
        "message_bits": "1001",
        "pair_count": 96,
        "sample_fraction": 0.25,
        "seed": 11,
        "qber_abort_threshold": 0.3,
    },
    "eve_model": {"kind": "none", "fraction": 0.05},
    "channel_model": {"mode_flip_prob": 0.01, "phase_flip_prob": 0.02},
}
BASE_CONFIG = {
    "message_bits": "0110",
    "pair_count": 80,
    "seed": 5,
    "eve_model": {"kind": "intercept_resend", "fraction": 0.0},
}
SECTIONS = {"config": QsdcConfig, "eve_model": EveModel, "channel_model": ChannelModel}
SETTABLE = [
    (where, name)
    for where, model in SECTIONS.items()
    for name in model.__slots__
    if name not in SECTIONS
]


class TestConfigFileAndFlags:
    def test_every_settable_field_has_a_table_entry(self):
        assert sorted(SETTABLE) == sorted(
            (where, key) for where, keys in cli._CONFIG_KEYS.items() for key in keys
        )

    @pytest.mark.parametrize("where, key", SETTABLE, ids=[k for _, k in SETTABLE])
    def test_file_value_and_flag_agree(self, where, key, tmp_path, capsys):
        value = SETTINGS[where][key]
        _, flag = cli._CONFIG_KEYS[where][key]

        def section_of(data):
            return data if where == "config" else data.setdefault(where, {})

        by_file, by_flag = copy.deepcopy(BASE_CONFIG), copy.deepcopy(BASE_CONFIG)
        section_of(by_file)[key] = value
        section_of(by_flag).pop(key, None)
        runs = []
        for name, data, extra in (
            ("file.json", by_file, []),
            ("flag.json", by_flag, [f"--{flag.replace('_', '-')}={value}"]),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            runs.append(run_cli(["qsdc", "--config", str(path), *extra], capsys))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 2) and runs[0][1]
