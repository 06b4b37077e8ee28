import argparse
import dataclasses
import gzip
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import SMALL_SAMPLE, child_env

from bisampling import __version__, bis, cli
from bisampling.baselines import coverage_experiment, preset
from bisampling.cli import main, read_observations
from bisampling.dirichlet import sample_unit_dp_grid
from bisampling.errors import BisamplingError, IndeterminateSumError
from bisampling.rng import substream


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

    def test_missing_file_reads_no_compressed_sibling(self, tmp_path):
        with gzip.open(tmp_path / "d.txt.gz", "wt") as fh:
            fh.write("1.5\n")
        with pytest.raises(FileNotFoundError):
            read_observations(str(tmp_path / "d.txt"))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_text_under_a_compressed_name(self, tmp_path, suffix):
        path = tmp_path / f"d{suffix}"
        path.write_text("# head\n1.5\r\n2.5 # note\n")
        assert read_observations(str(path)).tolist() == [1.5, 2.5]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError):
            read_observations(str(path), column="zzz")

    def test_csv_duplicate_name_short_row_blank_line_quoted_cell(self, tmp_path):
        # a repeated header name means its last column; the short row and
        # the blank line give no value; the quoted cell keeps its comma
        path = tmp_path / "d.csv"
        path.write_text('x,y,x,z\n1,2,3,"a,b"\n4,5\n\n7,8,"9.5",c\n')
        assert read_observations(str(path), column="x").tolist() == [3.0, 9.5]
        assert read_observations(str(path), column="y").tolist() == [2.0, 5.0, 8.0]

    @pytest.mark.parametrize("text", ["", "\n1\n"], ids=["empty-file", "blank-header"])
    def test_csv_without_header_has_no_column(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not found"):
            read_observations(str(path), column="x")


INF = float("inf")

# (id, file bytes, what read_observations returns, or the ValueError it raises)
READER_CASES = [
    ("crlf", b"1.5\r\n2.5\r\n", [1.5, 2.5]),
    ("cr", b"1.5\r2.5\r", [1.5, 2.5]),
    ("inline-comments", b"# head\n1.5 # note\n2.5#x\n", [1.5, 2.5]),
    ("blank-lines", b"\n1.5\n   \n\t\n2.5\n\n", [1.5, 2.5]),
    ("tab-nbsp-padding", "\t1.5\t\n\u00a02.5\u00a0\n".encode(), [1.5, 2.5]),
    ("no-final-newline", b"1.5\n2.5", [1.5, 2.5]),
    ("float-forms", b"+1.5\n.5\n5.\n1E2\n", [1.5, 0.5, 5.0, 100.0]),
    ("infinities", b"inf\n-inf\n1e400\n-Infinity\n", [INF, -INF, INF, -INF]),
    ("one-value", b"1.5\n", [1.5]),
    ("empty", b"", []),
    ("comment-only", b"# nothing\n#\n", []),
    ("nan", b"1.5\nnan\n", None),
    ("two-on-one-line", b"1.5\n2.5 3.5\n", ValueError),
    ("two-on-every-line", b"1 2\n3 4\n", ValueError),
    ("semicolon", b"1;2\n", ValueError),
    ("quoted", b'"1.5"\n', ValueError),
    ("text", b"1.5\nabc\n", ValueError),
    ("invalid-utf8", b"1.5\n\xff\n", ValueError),
]


class TestInputSyntax:
    @pytest.mark.parametrize("raw,expected", [c[1:] for c in READER_CASES],
                             ids=[c[0] for c in READER_CASES])
    def test_read_observations(self, tmp_path, raw, expected):
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        if expected is ValueError:
            with pytest.raises(ValueError):
                read_observations(str(path))
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data = read_observations(str(path))
        assert caught == []
        assert data.dtype == np.float64 and data.ndim == 1
        if expected is None:
            assert np.isnan(data).tolist() == [False, True]
        else:
            assert data.tolist() == expected

    @pytest.mark.parametrize("raw,expected", [c[1:] for c in READER_CASES],
                             ids=[c[0] for c in READER_CASES])
    def test_infer(self, capsys, tmp_path, raw, expected):
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        argv = ["--param", "median", "--bounds", "0", "inf", "--seed", "1"]
        code, out, err = run(capsys, ["infer", str(path)] + argv)
        finite = isinstance(expected, list) and all(map(math.isfinite, expected))
        if not finite:
            # infinite and NaN observations fail the validator, the rest the reader
            assert code == 2 and err.startswith("error:")
            return
        assert code == 0 and err == ""
        canonical = tmp_path / "canonical.txt"
        canonical.write_text("".join(f"{v!r}\n" for v in expected))
        ref_code, ref_out, _ = run(capsys, ["infer", str(canonical)] + argv)
        assert ref_code == 0
        assert json.loads(out)["interval"] == json.loads(ref_out)["interval"]

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "1\f2"],
                             ids=["underscore", "arabic-indic-digit", "form-feed"])
    @pytest.mark.parametrize("csv_mode", [False, True], ids=["plain", "column"])
    def test_rejected_forms(self, capsys, tmp_path, cell, csv_mode):
        # float() accepts the first two and str.splitlines splits the third
        path = tmp_path / "d.txt"
        if csv_mode:
            path.write_text(f"x\n1.5\n{cell}\n", encoding="utf-8")
            extra = ["--column", "x"]
        else:
            path.write_text(f"1.5\n{cell}\n", encoding="utf-8")
            extra = []
        code, _, err = run(
            capsys, ["infer", str(path), "--param", "median", "--bounds", "0", "inf"] + extra
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("body,column", [
        (b"1.5\n2.5\n3.0\n", None),
        (b"x,y\n1.5,2\n2.5,4\n3.0,8\n", "x"),
    ], ids=["plain", "column"])
    def test_a_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, body, column):
        # Excel's "CSV UTF-8" export starts the file with one
        bom, plain = tmp_path / "bom.txt", tmp_path / "plain.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + body)
        plain.write_bytes(body)
        got = read_observations(str(bom), column)
        assert got.tobytes() == read_observations(str(plain), column).tobytes()
        assert got.tolist() == [1.5, 2.5, 3.0]
        argv = ["--param", "median", "--bounds", "0", "inf", "--seed", "1"]
        if column is not None:
            argv += ["--column", column]
        outs = [run(capsys, ["infer", str(path)] + argv) for path in (bom, plain)]
        assert [code for code, _, _ in outs] == [0, 0]
        assert json.loads(outs[0][1])["interval"] == json.loads(outs[1][1])["interval"]

    @pytest.mark.parametrize("raw,extra", [
        (b"1.5\n\xef\xbb\xbf2.5\n", []),
        (b"x\n1.5\n\xef\xbb\xbf2.5\n", ["--column", "x"]),
        (b"\xef\xbb\xbf\xef\xbb\xbf1.5\n", []),
    ], ids=["plain", "column", "twice"])
    def test_a_byte_order_mark_elsewhere_exits_2(self, capsys, tmp_path, raw, extra):
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        code, _, err = run(capsys, ["infer", str(path), "--param", "median",
                                    "--bounds", "0", "inf"] + extra)
        assert code == 2 and err.startswith("error:")

    def test_whitespace_only_cell_is_no_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x\n1.5\n \n")
        with pytest.raises(ValueError):
            read_observations(str(path), column="x")

    def test_column_skips_empty_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.5,a\n,b\n 2.5 ,c\ninf,d\n")
        assert read_observations(str(path), column="x").tolist() == [1.5, 2.5, INF]

    def test_empty_column_is_silent(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read_observations(str(path), column="x").tolist() == []
        assert caught == []

    @pytest.mark.parametrize("csv_mode", [False, True], ids=["plain", "column"])
    def test_values_bit_identical_to_float(self, tmp_path, csv_mode):
        rng = np.random.default_rng(20260)
        # random bit patterns cover every exponent and both signs
        values = rng.integers(-(2**63), 2**63, 4000, dtype=np.int64).view(np.float64)
        subnormal = rng.integers(1, 2**52, 500, dtype=np.int64).view(np.float64)
        values = np.concatenate(
            [values[np.isfinite(values)], subnormal, -subnormal, rng.lognormal(0, 3, 2000)]
        )
        texts = [f(v) for v in values.tolist() for f in (repr, "%.25e".__mod__, "%.3g".__mod__)]
        path = tmp_path / "d.txt"
        if csv_mode:
            path.write_text("x\n" + "\n".join(texts) + "\n")
            got = read_observations(str(path), column="x")
        else:
            path.write_text("\n".join(texts) + "\n")
            got = read_observations(str(path))
        expected = np.array([float(t) for t in texts])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


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

    def test_mean_of_data_on_the_upper_bound_stays_inside(self, capsys, tmp_path):
        path = tmp_path / "fifty.txt"
        path.write_text("50\n" * 12)
        code, out, _ = run(capsys, ["infer", str(path), "--param", "mean",
                                    "--bounds", "0", "50", "--seed", "14"])
        assert code == 0
        assert json.loads(out)["interval"]["hi"] == 50.0

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

    @pytest.mark.parametrize("credibility, resamples", [(0.9, None), (0.95, 2000)])
    def test_qbox_agrees_with_interval_by_rank(self, capsys, tmp_path, credibility,
                                               resamples):
        # the endpoint at level a is the first q-box row whose count F * N
        # reaches ceil(a * N); at c=0.95, N=2000 reading F >= (1 - c) / 2
        # directly lands one rank high, since (1 - 0.95) / 2 > 0.025
        path, qbox = tmp_path / "obs.txt", tmp_path / "qbox.csv"
        path.write_text("1\n2\n3\n")
        argv = ["infer", str(path), "--param", "mean", "--bounds", "0", "10",
                "--credibility", str(credibility), "--seed", "5", "--qbox", str(qbox)]
        if resamples is not None:
            argv += ["--resamples", str(resamples)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        result = json.loads(out)
        n = result["n_resample"]
        rows = [[float(v) for v in line.split(",")]
                for line in qbox.read_text().splitlines()[2:]]
        for end, level, column in (("lo", (1.0 - credibility) / 2.0, 2),
                                   ("hi", (1.0 + credibility) / 2.0, 1)):
            rank = bis._ceil(level * n)
            first = next(r[0] for r in rows if round(r[column] * n) >= rank)
            assert first == result["interval"][end]

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


    def test_bootstrap_methods(self, capsys):
        argv = ["compare", "--preset", "table4", "--trials", "5", "--seed", "3",
                "--resamples", "200", "--methods", "bootstrap", "bayesian_bootstrap"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [r[0] for r in rows] == ["bootstrap", "bayesian_bootstrap"]
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0
        assert run(capsys, argv) == (0, out, "")

    def test_unknown_method_rejected_before_any_trial(self, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(cli, "coverage_experiment", lambda **kw: trials.append(kw))
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--preset", "table3", "--trials", "300",
                  "--methods", "bis", "bogus"])
        assert exc.value.code == 2
        assert trials == []
        assert "bogus" in capsys.readouterr().err

    def test_valid_overrides_reach_the_experiment(self, capsys):
        with pytest.warns(UserWarning, match="rule of thumb"):
            code, out, _ = run(capsys, ["compare", "--preset", "table3", "--trials", "3",
                                        "--resamples", "200", "--seed", "1", "--methods", "bis",
                                        "--n-sample", "10", "--credibility", "0.9"])
            config = preset("table3")
            report = coverage_experiment(
                gen=config["gen"], true_q=config["true_q"], method="bis",
                f=config["functional"], n_sample=10, credibility=0.9, n_trials=3,
                n_resample=200, interval=config["interval"], seed=1)
        assert code == 0
        want = cli._csv_text({}, [], [dataclasses.astuple(report)]).splitlines()[2]
        assert out.splitlines()[2:] == [want]

    def test_target_is_the_presets_own(self, capsys):
        # the preset's generator fixes the target, so no option sets another
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--preset", "table3", "--trials", "2", "--true-q", "1"])
        assert exc.value.code == 2
        assert "--true-q" in capsys.readouterr().err


class TestZeroOrNegativeOption:
    @pytest.mark.parametrize(
        "extra",
        [
            ["infer", "--resamples", "0"],
            ["infer", "--param", "median:0.3"],
            ["pbox", "--realisations", "-1"],
            ["compare", "--resamples", "0"],
            ["compare", "--credibility", "0"],
            ["compare", "--n-sample", "0"],
            # NumPy refuses the 7 PiB of q-samples at once, allocating nothing
            ["infer", "--resamples", "1000000000000000"],
            ["udp-sample", "--alpha", "inf"],
        ],
        ids=" ".join,
    )
    def test_exit_code(self, capsys, sample_file, extra):
        command, *options = extra
        if command == "infer":
            argv = ["infer", sample_file, "--param", "median", "--bounds", "0", "inf"]
        elif command == "pbox":
            argv = ["pbox", sample_file, "--bounds", "0", "inf"]
        elif command == "udp-sample":
            argv = ["udp-sample"]
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

    def test_underflowing_cell_parameter_names_the_options(self, capsys):
        # alpha / cells rounds to 0, though --alpha alone is positive
        code, out, err = run(capsys, ["udp-sample", "--alpha", "5e-324", "--cells", "200"])
        assert code == 2
        assert out == ""
        assert "--alpha" in err and "--cells" in err and "underflows" in err
        assert "Dirichlet parameters" not in err

    def test_columns_are_grid_draws_from_the_seed_substreams(self, capsys):
        code, out, _ = run(
            capsys,
            ["udp-sample", "--alpha", "1000", "--cells", "20", "--count", "3", "--seed", "1"],
        )
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[2:]], dtype=float)
        grid = np.arange(1, 21) / 20
        assert rows[:, 0].tolist() == grid.tolist()
        for i in range(3):
            real = sample_unit_dp_grid(1000.0, 20, substream(1, i))
            assert rows[:, 1 + i].tolist() == real.cdf(grid).tolist()

    # the Dirichlet draw over the cells is the only sampler: the truncated
    # stick-breaking options are gone, even at the old default value
    @pytest.mark.parametrize(
        "options", [["--method", "grid"], ["--terms", "100"]], ids=" ".join
    )
    def test_removed_sampler_options_exit_2(self, capsys, options):
        with pytest.raises(SystemExit) as exc:
            main(["udp-sample", "--alpha", "5", *options])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err and options[0] in err


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

    @staticmethod
    def csv_manifest(text):
        head, _, _ = text.partition("\n")
        assert head.startswith("# manifest: ")
        return json.loads(head[len("# manifest: "):])

    def test_each_command_records_its_settings(self, capsys, sample_file, tmp_path):
        common = {"seed": 0, "version": __version__}
        data = {**common, "input": sample_file, "column": None, "bounds": [0.0, "inf"]}
        qbox = tmp_path / "q.csv"
        code, out, _ = run(capsys, ["infer", sample_file, "--param", "mean", "--bounds", "0",
                                    "inf", "--qbox", str(qbox)])
        infer = {**data, "command": "infer", "functional": "mean", "credibility": 0.9,
                 "n_resample": 1000}
        assert code == 0 and json.loads(out)["manifest"] == infer
        assert self.csv_manifest(qbox.read_text()) == infer
        code, out, _ = run(capsys, ["pbox", sample_file, "--bounds", "0", "inf"])
        assert code == 0 and self.csv_manifest(out) == {
            **data, "command": "pbox", "realisations": 0}
        with pytest.warns(UserWarning, match="rule of thumb"):
            code, out, _ = run(capsys, ["compare", "--preset", "table4", "--trials", "2",
                                        "--resamples", "200", "--seed", "3", "--methods", "bis"])
        assert code == 0 and self.csv_manifest(out) == {
            **common, "command": "compare", "functional": "mean", "credibility": 0.95,
            "n_resample": 200, "seed": 3, "preset": "table4", "n_trials": 2,
            "true_q": preset("table4")["true_q"], "methods": ["bis"], "n_sample": 50}
        code, out, _ = run(capsys, ["udp-sample", "--alpha", "1", "--cells", "3"])
        assert code == 0 and self.csv_manifest(out) == {
            **common, "command": "udp-sample", "alpha": 1.0, "cells": 3, "count": 1}

    @classmethod
    def manifest_of(cls, out):
        return cls.csv_manifest(out) if out.startswith("#") else json.loads(out)["manifest"]

    # one run of each subcommand, and the keys it may add to its options'
    # dests: what it resolved that no option of its own sets
    RUNS = {
        "infer": (["--param", "median", "--bounds", "0", "inf"], set()),
        "pbox": (["--bounds", "0", "inf"], set()),
        "compare": (["--preset", "table3", "--trials", "2", "--methods", "student_t"],
                    {"functional", "true_q"}),
        "udp-sample": (["--alpha", "1", "--cells", "3"], set()),
    }

    def test_every_option_is_recorded(self, capsys, sample_file):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == set(self.RUNS)
        for name, command in commands.choices.items():
            options, resolved = self.RUNS[name]
            data = [sample_file] if "input" in {a.dest for a in command._actions} else []
            code, out, _ = run(capsys, [name, *data, *options])
            assert code == 0
            dests = {a.dest for a in command._actions} - {"out", "qbox", "help"}
            keys = set(self.manifest_of(out))
            assert dests <= keys, name
            assert keys - dests == {"command", "version"} | resolved, name

    def test_the_csv_column_is_recorded(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("x,y\n" + "".join(f"{v},{v * v}\n" for v in SMALL_SAMPLE))
        argv = ["infer", str(path), "--param", "median", "--bounds", "0", "inf", "--seed", "1"]
        x, y = (self.manifest_of(run(capsys, argv + ["--column", c])[1]) for c in "xy")
        assert set(x) == set(y)
        assert {k: (x[k], y[k]) for k in x if x[k] != y[k]} == {"column": ("x", "y")}

    def test_n_sample_is_recorded(self, capsys):
        argv = ["compare", "--preset", "table3", "--trials", "2", "--seed", "1",
                "--methods", "student_t"]
        code, out, _ = run(capsys, argv + ["--n-sample", "10"])
        assert code == 0 and self.csv_manifest(out)["n_sample"] == 10
        code, out, _ = run(capsys, argv)
        assert code == 0 and self.csv_manifest(out)["n_sample"] == 50
        assert preset("table3")["n_sample"] == 50


class TestOutputBytes:
    def test_pbox_of_three_observations(self, capsys, tmp_path, monkeypatch):
        # no draw: these bytes hold on every host
        monkeypatch.chdir(tmp_path)
        (tmp_path / "obs.txt").write_text("1\n2\n2\n")
        code, out, _ = run(capsys, ["pbox", "obs.txt", "--bounds", "0", "4"])
        assert code == 0
        assert out == (
            '# manifest: {"bounds": [0.0, 4.0], "column": null, "command": "pbox", '
            '"input": "obs.txt", "realisations": 0, "seed": 0, '
            f'"version": "{__version__}"}}\n'
            "x,F_lower,F_upper\n"
            "0.0,0.0,0.25\n"
            "1.0,0.25,0.5\n"
            "2.0,0.75,1.0\n"
            "4.0,1.0,1.0\n"
        )

    def test_compare_row_fields(self, capsys):
        with pytest.warns(UserWarning, match="rule of thumb"):
            code, out, _ = run(capsys, ["compare", "--preset", "table3", "--trials", "5",
                                        "--resamples", "200", "--methods", "student_t", "bis"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        # the method is its bare name, the credibility a float, the trial count an integer
        assert [r[:3] for r in rows] == [["student_t", "0.95", "5"], ["bis", "0.95", "5"]]


@pytest.mark.parametrize("argv, word", [
    (["udp-sample", "--alpha", "1", "--cells", "0"], "--cells"),
    (["udp-sample", "--alpha", "1", "--count", "0"], "--count"),
], ids=["cells", "count"])
def test_bad_udp_sizes_exit_2(capsys, argv, word):
    code, _, err = run(capsys, argv)
    assert code == 2 and word in err


def test_nan_bound_exits_2(capsys, sample_file):
    # BoundingInterval rejects the NaN endpoint once the input is read
    code, out, err = run(capsys, ["infer", sample_file, "--param", "mean", "--bounds", "nan", "1"])
    assert code == 2 and "NaN" in err and out == ""


def test_negative_scientific_bound_is_a_value(capsys, sample_file):
    code, out, _ = run(capsys, ["infer", sample_file, "--param", "median",
                                "--bounds", "-1e3", "inf", "--seed", "0"])
    assert code == 0 and json.loads(out)["manifest"]["bounds"] == [-1000.0, "inf"]


# an error raised by the run, and the code bis exits with: 1 for a numeric
# failure, 2 for a usage or input error
EXIT_CODES = [
    (IndeterminateSumError("weight at both -inf and +inf"), 1),
    (FloatingPointError("overflow in a kernel"), 1),
    (ZeroDivisionError("a zero total"), 1),
    (OverflowError("a sum out of range"), 1),
    (BisamplingError("a bad input"), 2),
    (ValueError("a bad value"), 2),
    (OSError("a file that cannot be read"), 2),
    (MemoryError("a request too large to allocate"), 2),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2),
]


@pytest.mark.parametrize("error,code", EXIT_CODES,
                         ids=[type(error).__name__ for error, _ in EXIT_CODES])
def test_error_exit_codes(capsys, monkeypatch, sample_file, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "bis_run", fail)
    got, out, err = run(capsys, ["infer", sample_file, "--param", "mean", "--bounds", "0", "inf"])
    assert (got, out, err) == (code, "", f"error: {error}\n")


def test_unparsable_functional_exits_2_naming_it(capsys, sample_file):
    code, _, err = run(capsys, ["infer", sample_file, "--param", "quantile:abc",
                                "--bounds", "0", "4"])
    assert code == 2 and err == "error: cannot parse functional 'quantile:abc'\n"


def run_module(module, argv, cwd):
    """``python -m module argv`` in ``cwd`` with this checkout's library."""
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def test_python_m_bisampling_prints_what_main_does(capsys, sample_file):
    argv = ["infer", sample_file, "--param", "median", "--bounds", "0", "inf", "--seed", "1"]
    done = run_module("bisampling", argv, Path(sample_file).parent)
    assert (done.returncode, done.stdout, done.stderr) == (*run(capsys, argv)[:2], "")


@pytest.mark.parametrize("module", ["bisampling"])
def test_a_failing_command_exits_2_from_the_entry_point(tmp_path, module):
    done = run_module(module, ["infer", "no-such-file", "--param", "mean", "--bounds", "0", "1"],
                      tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "no-such-file" in done.stderr
