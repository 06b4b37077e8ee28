"""The output digest tool's ulp count and its gate, on hand-made arrays."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env

from bisampling import dirichlet

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

TINY = 5e-324  # the smallest positive subnormal


def test_ordered_counts_one_ulp_between_neighbours_across_zero():
    x = np.array([-2.0 * TINY, -TINY, -0.0, 0.0, TINY, 2.0 * TINY])
    assert np.diff(digest._ordered(x)).tolist() == [1] * 5
    # and far from zero, one per nextafter step
    y = np.nextafter(1.0, np.array([0.0, 2.0]))
    assert np.diff(digest._ordered(np.array([y[0], 1.0, y[1]]))).tolist() == [1, 1]


@pytest.mark.parametrize("before,after,ulps", [(0.0, -0.0, 1), (-TINY, 0.0, 2), (TINY, -TINY, 3)])
def test_a_move_across_zero_is_counted(capsys, before, after, ulps):
    saved = {"bis_run|mean|15|1": np.array([1.0, before]), "bis_run|mean|15|2": np.ones(2)}
    current = {"bis_run|mean|15|1": np.array([1.0, after]), "bis_run|mean|15|2": np.ones(2)}
    assert digest.compare(saved, current) == 1
    assert capsys.readouterr().out == f"moved bis_run mean: 1 of 2 cases, worst {ulps} ulps\n"


def test_an_infinity_mismatch_is_reported_as_such(capsys):
    saved = {"bootstrap|cvar:0.9|15|1": np.array([1.0, np.inf])}
    current = {"bootstrap|cvar:0.9|15|1": np.array([1.0, np.finfo(float).max])}
    assert digest.compare(saved, current) == 1
    assert capsys.readouterr().out == "moved bootstrap cvar:0.9: 1 of 1 cases, infinities differ\n"


def test_equal_arrays_print_nothing(capsys):
    arrays = {"bis_run|median|15|1": np.array([-0.0, np.inf, -np.inf, np.nan, 1.5]),
              "evaluate|mean|200|3": np.arange(6.0).reshape(3, 2)}
    assert digest.compare(arrays, {k: v.copy() for k, v in arrays.items()}) == 0
    assert capsys.readouterr().out == ""


def test_against_exits_one_when_a_case_moved(monkeypatch, tmp_path, capsys):
    saved = tmp_path / "parent.npz"
    cases = [("bis_run", ("mean", "15", 1), np.array([1.0, 2.0]))]
    monkeypatch.setattr(digest, "outputs", lambda bis: iter(cases))
    digest.main(["--save", str(saved)])
    with pytest.raises(SystemExit) as same:
        digest.main(["--against", str(saved)])
    cases[0] = ("bis_run", ("mean", "15", 1), np.array([1.0, np.nextafter(2.0, 3.0)]))
    with pytest.raises(SystemExit) as moved:
        digest.main(["--against", str(saved)])
    assert (same.value.code, moved.value.code) == (0, 1)
    assert capsys.readouterr().out.endswith("moved bis_run mean: 1 of 1 cases, worst 1 ulps\n")


def test_one_sided_cases_are_listed_and_only_missing_ones_count(capsys):
    saved = {"bis_run|mean|15|1": np.ones(2), "bis_run|mean|15|2": np.ones(2),
             digest.HOST + "numpy": np.array("2.4.6")}
    current = {"bis_run|mean|15|1": np.ones(2), "bis_run|median|15|3": np.ones(2)}
    assert digest.compare(saved, current) == 1
    assert capsys.readouterr().out == ("missing bis_run mean: 1 of 2 cases\n"
                                       "new bis_run median: 1 of 1 cases\n")


@pytest.mark.parametrize("seeds, code, line", [
    ((1,), 1, "missing bis_run mean: 1 of 2 cases\n"),
    ((1, 2, 3), 0, "new bis_run mean: 1 of 3 cases\n"),
], ids=["missing", "new"])
def test_against_fails_on_a_missing_case_only(monkeypatch, tmp_path, capsys, seeds, code, line):
    def mean_cases(*run):
        return lambda bis: iter([("bis_run", ("mean", "15", seed), np.ones(2)) for seed in run])

    saved = tmp_path / "parent.npz"
    monkeypatch.setattr(digest, "outputs", mean_cases(1, 2))
    digest.main(["--save", str(saved)])
    monkeypatch.setattr(digest, "outputs", mean_cases(*seeds))
    with pytest.raises(SystemExit) as gate:
        digest.main(["--against", str(saved)])
    assert gate.value.code == code
    assert capsys.readouterr().out.endswith(line)


def test_src_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        digest.main(["--src", "x"])
    assert exc.value.code == 2
    assert "--src" in capsys.readouterr().err


def one_case(bis):
    return iter([("bis_run", ("mean", "15", 1), np.ones(2))])


def test_save_records_the_host(monkeypatch, tmp_path):
    saved = tmp_path / "run.npz"
    monkeypatch.setattr(digest, "outputs", one_case)
    digest.main(["--save", str(saved)])
    facts = digest.host()
    assert facts["numpy"] == np.__version__
    assert set(facts) == {"numpy", "blas", "cpu", "log", "unit_draw"}
    assert facts["unit_draw"] == dirichlet.UNIT_DRAW
    with np.load(saved) as npz:
        assert {k: str(npz[digest.HOST + k]) for k in facts} == facts
        assert sorted(npz) == sorted(["bis_run|mean|15|1"] + [digest.HOST + k for k in facts])


def test_against_names_the_host_facts_that_differ(monkeypatch, tmp_path, capsys):
    saved = tmp_path / "run.npz"
    monkeypatch.setattr(digest, "outputs", one_case)
    there = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "cpu": "X86_V3 X86_V4"}
    monkeypatch.setattr(digest, "host", lambda: there)
    digest.main(["--save", str(saved)])
    here = {**there, "cpu": "X86_V3"}
    monkeypatch.setattr(digest, "host", lambda: here)
    with pytest.raises(SystemExit) as same:
        digest.main(["--against", str(saved)])
    # a host difference alone moves no case, so the gate still passes
    assert same.value.code == 0
    assert capsys.readouterr().out.endswith("host cpu differs: X86_V3 X86_V4 -> X86_V3\n")


def inputs_sha1(tool) -> str:
    """The sha1 of every observation the digest tool draws."""
    return hashlib.sha1(b"".join(tool.data(size, seed).tobytes()
                                 for size in tool.SIZES for seed in tool.SEEDS)).hexdigest()


def test_zeros_size_is_the_n_200_data_with_signed_zeros_first():
    x, base = digest.data("200-zeros", 1), digest.data("200", 1)
    assert (x[:120] == 0).all() and np.signbit(x[:120]).tolist() == [True, False] * 60
    assert x[120:].tobytes() == base[120:].tobytes()


@pytest.mark.skipif(digest.host()["log"] != "X86_V4",
                    reason="float64 log does not dispatch to X86_V4 here")
def test_inputs_do_not_depend_on_the_dispatch():
    # a fresh interpreter whose NumPy may not dispatch to AVX-512 draws the
    # same observations, so only the library's own outputs can move
    code = (f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_output_digest as t\nprint(t.inputs_sha1(t.digest))\n")
    env = child_env(NPY_DISABLE_CPU_FEATURES="X86_V4")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == inputs_sha1(digest)


def test_against_a_run_saved_without_host_facts(capsys):
    digest.compare_host({"bis_run|mean|15|1": np.ones(2)}, {"numpy": "2.4.6"})
    assert capsys.readouterr().out == "host numpy differs: not recorded -> 2.4.6\n"


@pytest.mark.parametrize("after", [b"x,1.5\n", b"x,1.25\n"], ids=["same-length", "longer"])
def test_a_moved_cli_case_reports_no_ulps(capsys, after):
    # an ulp of a character means nothing, and a longer text is no infinity
    key = "cli|pbox|stdout"
    saved = {key: np.frombuffer(b"x,1.0\n", np.uint8)}
    assert digest.compare(saved, {key: np.frombuffer(after, np.uint8)}) == 1
    assert capsys.readouterr().out == "moved cli pbox: 1 of 1 cases, text differs\n"


def test_cli_family_digests_stdout_and_every_output_file():
    from bisampling import cli

    here = os.getcwd()
    with pytest.warns(UserWarning, match="rule of thumb"):  # compare at 200 resamples
        found = digest.cli_outputs(cli)
    assert os.getcwd() == here
    assert {family for family, _, _ in found} == {"cli"}
    texts = {case: out.tobytes() for _, case, out in found}
    assert list(texts) == [
        ("infer", "stdout"), ("infer-qbox", "stdout"), ("infer-qbox", "infer.json"),
        ("infer-qbox", "qbox.csv"), ("infer-column", "stdout"), ("pbox", "stdout"),
        ("pbox-realisations", "stdout"), ("pbox-realisations", "pbox.csv"), ("compare", "stdout"),
        ("udp-grid", "stdout"), ("udp-grid", "udp.csv")]
    # a command writing to --out leaves stdout empty; the input path is as given
    assert [case for case, text in texts.items() if not text] == [
        ("infer-qbox", "stdout"), ("pbox-realisations", "stdout"), ("udp-grid", "stdout")]
    assert b'"input": "obs.txt"' in texts["pbox", "stdout"]
    assert b'"column": "y"' in texts["infer-column", "stdout"]
