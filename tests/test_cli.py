import json
import math

import pytest

from conftest import SMALL_SAMPLE

from bisampling.cli import main, read_observations


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("".join(f"{v}\n" for v in SMALL_SAMPLE))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReadObservations:
    def test_plain_lines_with_comments(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n1.5\n\n2.5  # trailing note\n")
        assert read_observations(str(path)).tolist() == [1.5, 2.5]

    def test_csv_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,10\n2,20\n")
        assert read_observations(str(path), column="b").tolist() == [10.0, 20.0]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError):
            read_observations(str(path), column="zzz")


class TestInfer:
    def test_median_reference_interval(self, capsys, sample_file):
        code, out, _ = run(
            capsys,
            ["infer", sample_file, "--param", "median", "--credibility", "0.9",
             "--bounds", "0", "inf", "--seed", "7"],
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["interval"]["lo"] - 0.34) <= 0.15
        assert abs(result["interval"]["hi"] - 3.60) <= 0.15
        assert result["manifest"]["functional"] == "median"
        assert result["manifest"]["bounds"] == [0.0, "inf"]
        assert result["n_resample"] == 1000

    def test_mean_unbounded(self, capsys, sample_file):
        code, out, _ = run(
            capsys,
            ["infer", sample_file, "--param", "mean", "--credibility", "0.9",
             "--bounds", "0", "inf", "--seed", "7"],
        )
        assert code == 0
        result = json.loads(out)
        assert result["interval"]["hi"] == "inf"
        assert result["unbounded_above"] is True
        assert abs(result["interval"]["lo"] - 1.21) <= 0.10

    @pytest.mark.parametrize("param", ["mean", "cvar:0.9"])
    def test_unbounded_both_sides(self, capsys, sample_file, param):
        # each bound CDF has mass at one infinity only: no indeterminate sum
        code, out, _ = run(
            capsys,
            ["infer", sample_file, "--param", param, "--bounds", "-inf", "inf",
             "--seed", "7"],
        )
        assert code == 0
        interval = json.loads(out)["interval"]
        assert interval["hi"] == "inf"
        if param == "mean":
            assert interval["lo"] == "-inf"
        else:
            assert math.isfinite(interval["lo"])

    def test_empty_data_vacuous_interval(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, out, _ = run(
            capsys,
            ["infer", str(path), "--param", "quantile:0.25", "--bounds", "0", "1",
             "--seed", "1"],
        )
        assert code == 0
        result = json.loads(out)
        assert result["interval"] == {"lo": 0.0, "hi": 1.0}

    def test_qbox_csv(self, capsys, sample_file, tmp_path):
        qbox = tmp_path / "qbox.csv"
        code, _, _ = run(
            capsys,
            ["infer", sample_file, "--param", "median", "--bounds", "0", "inf",
             "--seed", "3", "--qbox", str(qbox)],
        )
        assert code == 0
        lines = qbox.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "value,F_lower,F_upper"
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0 and float(last[2]) == 1.0

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(
            capsys, ["infer", "no-such-file", "--param", "mean", "--bounds", "0", "1"]
        )
        assert code == 2
        assert "error" in err

    def test_bad_observation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5.0\n")
        code, _, err = run(
            capsys, ["infer", str(path), "--param", "mean", "--bounds", "0", "1"]
        )
        assert code == 2
        assert "error" in err


class TestPbox:
    def test_breakpoint_rows(self, capsys, sample_file):
        code, out, _ = run(capsys, ["pbox", sample_file, "--bounds", "0", "inf"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,F_lower,F_upper"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 17
        assert rows[0][0] == "0.0" and float(rows[0][2]) == 0.0625
        assert rows[-1][0] == "inf" and float(rows[-1][1]) == 1.0

    def test_empty_data_two_rows(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(capsys, ["pbox", str(path), "--bounds", "0", "1"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [r[0] for r in rows] == ["0.0", "1.0"]
        assert [float(v) for v in rows[0][1:]] == [0.0, 1.0]
        assert [float(v) for v in rows[1][1:]] == [1.0, 1.0]

    def test_realisation_columns(self, capsys, sample_file):
        code, out, _ = run(
            capsys,
            ["pbox", sample_file, "--bounds", "0", "inf", "--realisations", "4",
             "--seed", "5"],
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[1].split(",")
        assert header == (
            ["x", "F_lower", "F_upper"]
            + [f"r{i}_{side}" for i in range(1, 5) for side in ("lower", "upper")]
        )
        for line in lines[2:]:
            vals = [float(v) for v in line.split(",")[1:]]
            lows, highs = vals[2::2], vals[3::2]
            assert all(lo <= hi + 1e-12 for lo, hi in zip(lows, highs))


class TestCompare:
    def test_small_preset_run(self, capsys):
        with pytest.warns(UserWarning, match="rule of thumb"):
            code, out, _ = run(
                capsys,
                ["compare", "--preset", "table3", "--trials", "10", "--seed", "1",
                 "--resamples", "200", "--methods", "student_t", "bis"],
            )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "method,credibility,n_trials,hit_rate,median_lo,median_hi"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["student_t", "bis"]
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_single_trial_hit_rate(self, capsys):
        with pytest.warns(UserWarning, match="rule of thumb"):
            code, out, _ = run(
                capsys,
                ["compare", "--preset", "table4", "--trials", "1", "--seed", "2",
                 "--resamples", "100", "--methods", "bis"],
            )
        assert code == 0
        hit = float(out.splitlines()[2].split(",")[3])
        assert hit in (0.0, 1.0)


class TestZeroOrNegativeOption:
    @pytest.mark.parametrize(
        "extra",
        [
            ["infer", "--resamples", "0"],
            ["pbox", "--realisations", "-1"],
            ["compare", "--resamples", "0"],
            ["compare", "--credibility", "0"],
            ["compare", "--n-sample", "0"],
            ["compare", "--true-q", "nan"],
        ],
        ids=" ".join,
    )
    def test_exit_code(self, capsys, sample_file, extra):
        command, *options = extra
        if command == "infer":
            argv = ["infer", sample_file, "--param", "median", "--bounds", "0", "inf"]
        elif command == "pbox":
            argv = ["pbox", sample_file, "--bounds", "0", "inf"]
        else:
            argv = ["compare", "--preset", "table3", "--trials", "2"]
        code, out, err = run(capsys, argv + options)
        assert code == 2
        assert out == ""
        assert "error" in err


class TestUdpSample:
    def test_grid_columns(self, capsys):
        code, out, _ = run(
            capsys, ["udp-sample", "--alpha", "10", "--cells", "200", "--count", "3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,cdf_1,cdf_2,cdf_3"
        assert len(lines) == 2 + 200
        final = [float(v) for v in lines[-1].split(",")]
        assert final[0] == 1.0
        assert all(abs(v - 1.0) <= 1e-9 for v in final[1:])

    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, ["udp-sample", "--alpha", "2", "--cells", "1"])
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == 1
        assert [float(v) for v in rows[0].split(",")] == [1.0, 1.0]

    def test_huge_alpha_close_to_diagonal(self, capsys):
        code, out, _ = run(
            capsys, ["udp-sample", "--alpha", "1e6", "--cells", "200", "--seed", "4"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        sup = max(abs(float(x) - float(cdf)) for x, cdf in rows)
        assert sup < 0.01

    def test_stick_method(self, capsys):
        code, out, _ = run(
            capsys,
            ["udp-sample", "--alpha", "5", "--cells", "50", "--method", "stick",
             "--terms", "200", "--seed", "6"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        cdf = [float(r[1]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))
        assert abs(cdf[-1] - 1.0) <= 1e-9


class TestReproducibility:
    def test_byte_identical_outputs(self, capsys, sample_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["infer", sample_file, "--param", "trunc-mean:0.9", "--bounds", "0",
                "inf", "--seed", "42", "--credibility", "0.8"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pbox_byte_identical(self, capsys, sample_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["pbox", sample_file, "--bounds", "0", "inf", "--realisations", "2",
                "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_bounds_round_trip(self, capsys, sample_file):
        code, out, _ = run(
            capsys,
            ["infer", sample_file, "--param", "median", "--bounds", "-inf", "inf",
             "--seed", "0"],
        )
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["bounds"] == ["-inf", "inf"]
        assert math.isinf(float(manifest["bounds"][0]))


class TestManifest:
    def test_every_output_embeds_manifest(self, capsys, sample_file):
        for argv in (
            ["infer", sample_file, "--param", "mean", "--bounds", "0", "inf"],
            ["pbox", sample_file, "--bounds", "0", "inf"],
            ["udp-sample", "--alpha", "1", "--cells", "3"],
        ):
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert "manifest" in out
            assert "\"version\": \"" in out or "'version'" in out
