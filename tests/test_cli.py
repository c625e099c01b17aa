import numpy as np
import pytest

from expandiff.cli import ConfigError, main, parse_config, run
from expandiff.studies import read_csv

CUSTOM = """
# temporal self-convergence on a coarse grid
preset = custom
alpha = 0.5
final_time = 1
cells = 16
tau_list = 1/4 1/8 1/16
coeff.kind = power
coeff.scale = 1
coeff.exponent = 2.01
w0.kind = chi
w0.a = 0.5
w0.b = 1
source.kind = zero
"""


def test_parse_preset_with_alpha():
    cfg = parse_config("preset = table1\nalpha = 0.3")
    assert cfg.preset == "table1"
    assert cfg.alpha == 0.3


def test_parse_empty_config_rejected():
    with pytest.raises(ConfigError, match="empty config"):
        parse_config("")


def test_parse_alpha_out_of_range():
    with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\]"):
        parse_config("preset = table1\nalpha = 1.5")


def test_parse_collects_all_errors_with_line_numbers():
    bad = "preset = table1\nwobble = 3\nalpha = not-a-number\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    messages = exc.value.errors
    assert len(messages) == 2
    assert any("line 2" in m and "wobble" in m for m in messages)
    assert any("line 3" in m and "alpha" in m for m in messages)


def test_parse_fraction_lists_and_comments():
    cfg = parse_config(CUSTOM)
    assert cfg.tau_list == pytest.approx([0.25, 0.125, 0.0625])
    assert cfg.w0_kind == "chi" and cfg.w0_b == 1.0


def test_parse_custom_requires_axis():
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config("preset = custom\nalpha = 0.5\nfinal_time = 1\n"
                     "coeff.kind = constant\ncoeff.scale = 1")


def test_parse_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="preset must be one of"):
        parse_config("preset = table9")


def test_run_custom_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    cfg = parse_config(CUSTOM + f"\noutput = {out}")
    assert run(cfg) == 0
    tables = read_csv(out)
    assert len(tables) == 1
    assert len(tables[0].errors) == 3
    assert all(e > 0 for e in tables[0].errors)
    console = capsys.readouterr().out
    assert "1/4" in console and "rate" in console


def test_cli_end_to_end_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["--config", str(tmp_path / "cfg.txt")]
    (tmp_path / "cfg.txt").write_text(CUSTOM)
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_alpha_override(tmp_path):
    out = tmp_path / "o.csv"
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(CUSTOM)
    assert main(["--config", str(cfgfile), "--alpha", "0.7",
                 "--output", str(out)]) == 0
    assert out.exists()


def test_cli_preset_writes_stacked_blocks(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["--preset", "table2", "--output", str(out)]) == 0
    tables = read_csv(out)
    assert len(tables) == 2          # one block per benchmark order
    assert all(len(tb.errors) == 5 for tb in tables)
    assert all(0.9 <= r <= 1.25 for tb in tables for r in tb.rates)


def test_cli_oracle_preset_prints_max_error(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["--preset", "oracle", "--alpha", "0.8",
                 "--output", str(out)]) == 0
    console = capsys.readouterr().out
    assert "max error vs closed form" in console
    tables = read_csv(out)
    assert len(tables) == 2          # temporal and spatial legs
    assert all(e > 0 for tb in tables for e in tb.errors)


def test_cli_invalid_config_exits_nonzero_without_csv(tmp_path, capsys):
    cfgfile = tmp_path / "bad.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(f"preset = custom\nalpha = 7\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_non_finite_coefficient_exits_nonzero_without_csv(tmp_path, capsys):
    cfgfile = tmp_path / "inf.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(CUSTOM.replace("coeff.scale = 1", "coeff.scale = inf")
                       + f"\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    assert "scale must be finite" in capsys.readouterr().err


def test_cli_unwritable_output(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(CUSTOM)
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["--config", str(cfgfile), "--output", str(missing)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_requires_some_input(capsys):
    assert main([]) == 1
    assert "need --config" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "ghost.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_parse_rejects_smooth_flag_on_rough_datum():
    with pytest.raises(ConfigError, match="cannot be flagged smooth"):
        parse_config(CUSTOM + "\nw0.smooth = true")


def test_run_custom_sine_datum(tmp_path):
    cfg_text = """
preset = custom
alpha = 0.8
final_time = 1
cells = 32
tau_list = 1/8 1/16
coeff.kind = constant
coeff.scale = 1
w0.kind = sine
w0.mode = 2
source.kind = zero
"""
    out = tmp_path / "sine.csv"
    cfg = parse_config(cfg_text + f"\noutput = {out}")
    assert run(cfg) == 0
    tables = read_csv(out)
    assert tables[0].errors[0] > tables[0].errors[-1] > 0
