import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathub import cli
from cathub.cli import main
from cathub.probabilities import demux_ratio
from cathub.hub import Outcome


def _rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_fidelity_sweep_row(tmp_path):
    out = tmp_path / "fid.csv"
    code = main(
        ["fidelity-sweep", "--N", "90", "--beta", "5", "--out", str(out)]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["parity", "N", "beta", "y_star", "fidelity", "evaluations"]
    assert len(rows) == 1
    assert rows[0][0] == "even"
    assert float(rows[0][4]) > 0.99


def test_fidelity_sweep_rejects_parity_mismatch(tmp_path):
    code = main(
        ["fidelity-sweep", "--N", "91", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1


def test_domain_error_exit_code(tmp_path):
    # odd target with zero amplitude has no valid cat target
    code = main(
        [
            "fidelity-sweep",
            "--parity",
            "odd",
            "--N",
            "1",
            "--beta",
            "0",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    # beta^2 = 1e-320 is subnormal, so the odd cat has no normalisation
    assert main(["fidelity-sweep", "--parity", "odd", "--N", "1", "--beta", "1e-160"]) == 2


def test_tiny_odd_beta_sweeps_to_one_photon(capsys):
    # 1 - exp(-2 beta^2) is 2e-18 here, not 0; both states are nearly |1>
    assert main(["fidelity-sweep", "--parity", "odd", "--N", "11", "--beta", "1e-9"]) == 0
    out, err = capsys.readouterr()
    assert float(out.splitlines()[1].split(",")[4]) == pytest.approx(1.0, abs=1e-9)
    assert "Traceback" not in err


def test_huge_beta_is_domain_error(capsys):
    # the cat window would overflow an int, or ask numpy for gigabytes
    assert main(["fidelity-sweep", "--N", "10", "--beta", "1e308"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["not-a-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_byte_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["meanphoton-sweep", "--N", "10,20", "--beta", "1:3:0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_do_not_change_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["fidelity-sweep", "--N", "10", "--beta", "1:2:0.5"]
    assert main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_prob_sweep_demux_cross_check(tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        [
            "prob-sweep",
            "--t",
            "0.8",
            "--beta",
            "3",
            "--counts",
            "10,10;0,20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["t", "beta", "n1", "n2", "y2", "s_backsolved", "probability"]
    split = float(rows[0][6])
    lumped = float(rows[1][6])
    want = demux_ratio(Outcome((10, 10)), 0.8).to_float()
    assert split / lumped == pytest.approx(want, rel=1e-10)


def test_prob_sweep_flags_infeasible_rows(tmp_path):
    out = tmp_path / "p.csv"
    # such a dark tap cannot reach the required herald point
    code = main(
        [
            "prob-sweep",
            "--t",
            "0.7",
            "--beta",
            "3",
            "--counts",
            "10,10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = _rows(out)
    assert rows[0][5] == "nan"
    assert rows[0][6] == "nan"
    assert float(rows[0][4]) > 0.0  # the herald point itself is still reported


def test_prob_sweep_single_tap_rows(tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        ["prob-sweep", "--t", "0.9", "--beta", "2.5", "--counts", "10", "--out", str(out)]
    )
    assert code == 0
    _, rows = _rows(out)
    assert rows[0][2] == "10"
    assert rows[0][3] == ""  # no second tap
    assert float(rows[0][6]) > 0.0


def test_meanphoton_sweep_columns(tmp_path):
    out = tmp_path / "m.csv"
    code = main(
        ["meanphoton-sweep", "--N", "90", "--beta", "6", "--out", str(out)]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["parity", "N", "beta", "y_star", "mean_n", "beta_sq"]
    assert float(rows[0][5]) == pytest.approx(36.0)
    assert 35.0 < float(rows[0][4]) < 36.5


def test_detector_report_lossless_limit(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(
        ["detector-report", "--eta", "1.0", "--k", "1", "--t", "0.9", "--N", "20",
         "--beta", "3", "--out", str(out)]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header[:5] == ["k", "t", "eta", "mean_n", "reduction_factor"]
    assert float(rows[0][5]) == pytest.approx(1.0)  # first-order multiplier
    assert float(rows[0][6]) == pytest.approx(1.0, abs=1e-9)  # exact multiplier
    assert float(rows[0][7]) == 0.0  # penalty


def test_detector_report_reference_row(tmp_path):
    out = tmp_path / "d.csv"
    code = main(
        ["detector-report", "--k", "1", "--t", "0.9", "--N", "20", "--beta", "3",
         "--out", str(out)]
    )
    assert code == 0
    _, rows = _rows(out)
    assert float(rows[0][4]) == pytest.approx(8.21, rel=5e-3)
    assert float(rows[0][5]) == pytest.approx(0.8358, abs=1e-3)


def test_detector_report_summary_keeps_zero_exact_multiplier(tmp_path, capsys, monkeypatch):
    # a genuine 0.0 exact multiplier belongs in the summary like any other value
    monkeypatch.setattr(cli, "lossy_fidelity_exact", lambda *args: 0.0)
    code = main(
        ["detector-report", "--k", "1", "--t", "0.9", "--N", "20", "--beta", "3",
         "--out", str(tmp_path / "d.csv")]
    )
    assert code == 0
    assert "exact multiplier 0" in capsys.readouterr().err
    _, rows = _rows(tmp_path / "d.csv")
    assert float(rows[0][6]) == 0.0


def test_detector_report_transparent_tap_leaves_exact_empty(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["detector-report", "--k", "1", "--t", "1.0", "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert float(rows[0][4]) == 0.0  # reduction factor
    assert rows[0][6] == ""  # no exact multiplier without a reachable count


def test_detector_report_chain_rows_carry_exact_multiplier(tmp_path):
    # two taps at t are exactly one tap at t^2, exact multiplier included
    out = tmp_path / "d.csv"
    code = main(["detector-report", "--k", "2,1", "--t", "0.9,0.81", "--N", "20", "--beta", "3",
                 "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert rows[0][:2] == ["2", "0.9"] and rows[3][:2] == ["1", "0.81"]
    assert 0.0 < float(rows[0][6]) < 1.0
    assert float(rows[0][6]) == pytest.approx(float(rows[3][6]), rel=1e-10)
    assert float(rows[0][4]) == pytest.approx(float(rows[3][4]), rel=1e-10)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--k", "0"],
        ["oracle-check", "--N", "-1"],
        ["oracle-check", "--cutoff", "-1"],
        ["oracle-check", "--cutoff", "0"],
        ["detector-report", "--mean-n", "-5"],
        ["detector-report", "--mean-n", "nan"],
        ["fidelity-sweep", "--workers", "0"],
        ["fidelity-sweep", "--precision", "18"],
        ["prob-sweep", "--t", "1.5"],
        ["fidelity-sweep", "--config", "CFG"],
        # a bad file value is caught even where a flag overrides it
        ["fidelity-sweep", "--config", "CFG", "--workers", "1"],
        # a range whose point count is not finite, or too large to build
        ["fidelity-sweep", "--N", "10", "--beta", "0.5:1e300:1e-300"],
        ["fidelity-sweep", "--N", "10", "--beta", "0:1e9:1e-3"],
        ["detector-report", "--mean-n", "inf"],
        ["oracle-check", "--tolerance", "nan"],
        ["oracle-check", "--tolerance", "-1"],
    ],
)
def test_out_of_range_bounds_are_usage_errors(argv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("workers = 0\n", encoding="utf-8")
    assert main([str(cfg) if arg == "CFG" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_overflowing_first_order_load_is_domain_error(capsys):
    # (1 - eta) rf is finite but its square, the trade-off penalty, is not
    assert main(["detector-report", "--k", "1", "--N", "20", "--beta", "3",
                 "--mean-n", "1e308"]) == 2
    # (1 - T)/T itself overflows at T = 1e-320
    assert main(["detector-report", "--k", "1", "--t", "1e-160"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# boundary and malformed tokens; 1e-160 and 1e-200 make t^2, t^4 or beta^2
# subnormal or zero, and the last one is a range whose point count is not
# finite
_BAD_TOKENS = ["nan", "inf", "-1", "0", "1e308", "1e-160", "1e-200", "abc", "", "0:1e300:1e-300"]
# valid tokens per flag, kept cheap: N <= 40, at most 3 grid points, and for
# oracle-check k <= 2, N <= 3 and cutoff <= 20; every flag is always given,
# since some defaults (N = 90, oracle-check k = 3) are slow
_SWEEP_FLAGS = {
    "--parity": ["even", "odd"],
    "--N": ["0", "11", "40", "10,20"],
    "--beta": ["2", "0.5:1.5:0.5", "1,3"],
}
_ARGV_FLAGS = {
    "fidelity-sweep": _SWEEP_FLAGS,
    "meanphoton-sweep": _SWEEP_FLAGS,
    "prob-sweep": {
        "--t": ["0.8", "0.9,1"],
        "--beta": ["2.5", "2:3:0.5"],
        "--counts": ["10,10", "20", "0,4;3"],
    },
    "detector-report": {
        "--t": ["0.9", "0.95,1"],
        "--k": ["1", "2", "1,2"],
        "--eta": ["0.95", "1"],
        "--mean-n": ["35", "0"],
        "--N": ["20", "40"],
        "--beta": ["3", "0.5"],
    },
    "oracle-check": {
        "--k": ["1", "2"],
        "--N": ["2", "3"],
        "--t": ["0.8", "0.7,0.9"],
        "--s": ["0.5", "1,0.5"],
        "--cutoff": ["10", "20"],
        "--tolerance": ["1e-9", "0"],
    },
}
_COMMON_FLAGS = {"--precision": ["3", "17"], "--workers": ["1"]}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    flags = {**_ARGV_FLAGS[command], **_COMMON_FLAGS}
    # a few flags take a bad token, the rest a valid one, so that a bad
    # token often reaches the computation
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, valid in flags.items():
        argv += [flag, draw(st.sampled_from(_BAD_TOKENS if flag in bad else valid))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_any_argv_ends_in_an_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("N = 20\nbeta = 3 # with a comment\n", encoding="utf-8")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert main(["fidelity-sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["fidelity-sweep", "--N", "20", "--beta", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # explicit flag wins over the file value
    assert main(
        ["fidelity-sweep", "--config", str(cfg), "--beta", "2", "--out", str(c)]
    ) == 0
    _, rows = _rows(c)
    assert float(rows[0][2]) == 2.0


def test_config_file_must_be_key_value(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n", encoding="utf-8")
    assert main(["fidelity-sweep", "--config", str(bad)]) == 1


def test_oracle_check_minimal_pass(capsys):
    code = main(["oracle-check", "--k", "1", "--N", "2", "--t", "0.9", "--s", "0.8"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_check_transparent_tap(capsys):
    # nothing reflects at t = 1: both routes give nonzero counts probability 0
    code = main(["oracle-check", "--k", "1", "--N", "2", "--t", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cases checked: 6" in out and "result: PASS" in out


def test_oracle_check_impossible_tolerance(capsys):
    # no float64 comparison reaches 1e-18, so the check must report FAIL
    code = main(
        ["oracle-check", "--k", "1", "--N", "2", "--t", "0.9", "--s", "0.8",
         "--tolerance", "1e-18"]
    )
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "cathub.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fidelity-sweep" in proc.stdout
