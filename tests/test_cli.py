import io
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from expandiff.cli import _KEYS, ConfigError, main, parse_config, print_table, run
from expandiff.studies import RateTable


def read_csv(path):
    """Blocks of a ``write_csv`` file as namespaces of resolutions, errors and
    rates; a block starts at each row with an empty rate cell.  The CSV holds
    neither the label nor the axis of a table, so neither comes back."""
    with open(path, encoding="utf-8") as f:
        rows = f.read().split()
    if not rows or rows[0] != "resolution,error,rate":
        raise ValueError("not a rate-table CSV (missing header)")
    blocks = []
    for row in rows[1:]:
        res, err, rate = row.split(",")
        if rate == "":
            blocks.append(SimpleNamespace(resolutions=[], errors=[], rates=[]))
        else:
            blocks[-1].rates.append(float(rate))
        blocks[-1].resolutions.append(float(res))
        blocks[-1].errors.append(float(err))
    return blocks


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
    assert cfg["preset"] == "table1"
    assert cfg["alpha"] == 0.3


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
    assert cfg["tau_list"] == pytest.approx([0.25, 0.125, 0.0625])
    assert cfg["w0.kind"] == "chi" and cfg["w0.b"] == 1.0


def test_parse_custom_requires_axis():
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config("preset = custom\nalpha = 0.5\nfinal_time = 1\n"
                     "coeff.kind = constant\ncoeff.scale = 1")


def test_parse_reports_each_rejected_object_once():
    # every key is present and parses; the values fail in the library objects
    bad = (CUSTOM.replace("final_time = 1", "final_time = nan")
           .replace("coeff.scale = 1", "coeff.scale = nan")
           .replace("w0.a = 0.5", "w0.a = 0.9").replace("w0.b = 1", "w0.b = 0.1")
           .replace("source.kind = zero", "source.kind = chi\nsource.a = 0.7\nsource.b = 0.2"))
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert [e.split(": ", 1)[0] for e in exc.value.errors] == [
        "coeff.scale, coeff.exponent", "w0.a, w0.b", "source.a, source.b, source.exponent",
        "alpha, final_time"]


def test_parse_bad_value_is_not_also_missing():
    with pytest.raises(ConfigError) as exc:
        parse_config(CUSTOM.replace("cells = 16", "cells = many"))
    assert len(exc.value.errors) == 1 and "bad value for cells" in exc.value.errors[0]


def test_preset_rejects_keys_it_ignores(tmp_path, capsys):
    # a preset runs its fixed document; other keys used to be dropped silently
    with pytest.raises(ConfigError) as exc:
        parse_config("preset = table1\ncells = 64\ncoeff.scale = -3")
    assert exc.value.errors == ["line 2: cells has no effect with preset table1",
                                "line 3: coeff.scale has no effect with preset table1"]
    cfgfile = tmp_path / "custom.cfg"
    out = tmp_path / "never.csv"
    cfgfile.write_text(CUSTOM)
    assert main(["--config", str(cfgfile), "--preset", "table1", "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 10 and "error: line 6: cells has no effect with preset table1" in err
    assert all(line.endswith("has no effect with preset table1") for line in err)


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


SPATIAL = CUSTOM.replace("cells = 16", "steps = 4").replace("tau_list = 1/4 1/8 1/16",
                                                           "h_list = 1/4 1/8")


@pytest.mark.parametrize("cfg_text", [
    CUSTOM.replace("tau_list = 1/4 1/8 1/16", "tau_list = 0"),
    CUSTOM.replace("tau_list = 1/4 1/8 1/16", "tau_list = 1e-320"),
    SPATIAL.replace("h_list = 1/4 1/8", "h_list = 0"),
    SPATIAL.replace("h_list = 1/4 1/8", "h_list = inf"),
    SPATIAL.replace("h_list = 1/4 1/8", "h_list = 0.0312 0.0156"),
    CUSTOM.replace("cells = 16", "cells = 1" + "0" * 400),  # was an OverflowError traceback
], ids=["tau-zero", "tau-tiny", "h-zero", "h-inf", "h-not-one-over-n", "cells-huge"])
def test_cli_degenerate_resolutions_exit_with_one_error_line(tmp_path, capsys, cfg_text):
    cfgfile = tmp_path / "degenerate.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(cfg_text + f"\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("key, flag", [("\noutput =", []), ("", ["--output", ""])],
                         ids=["key", "flag"])
def test_cli_rejects_empty_output(tmp_path, monkeypatch, capsys, key, flag):
    # an empty path used to fall back to custom.csv without a word
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(CUSTOM + key)
    assert main(["--config", "cfg.txt"] + flag) == 1
    assert "bad value for output: empty value" in capsys.readouterr().err
    assert not (tmp_path / "custom.csv").exists()



def test_cli_override_errors_name_the_flag(tmp_path, monkeypatch, capsys):
    # overrides are not lines of the file: an error cites the flag
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(CUSTOM)
    assert main(["--config", "cfg.txt", "--output", ""]) == 1
    assert capsys.readouterr().err == "error: --output: bad value for output: empty value\n"
    assert not (tmp_path / "custom.csv").exists()

def test_config_keys_are_declared_once():
    # the README's key list and the key table agree
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"`([^`]+)`", re.search(r"Keys:(.*?`)\.", readme, re.S).group(1))
    assert set(listed) == set(_KEYS)


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_configs_parse(path):
    # parse_config checks the keys and plans the studies; it solves nothing
    parse_config(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("text, what", [
    (CUSTOM + "coeff.kind = constant\ncoeff.exponent = -1",
     "coeff.exponent has no effect with coeff.kind = constant"),
    (CUSTOM + "w0.mode = 0", "w0.mode has no effect with w0.kind = chi"),
    (CUSTOM + "w0.smooth = false", "w0.smooth has no effect with w0.kind = chi"),
    (CUSTOM + "source.exponent = -1", "source.exponent has no effect with source.kind = zero"),
    (CUSTOM + "steps = 0", "steps has no effect with tau_list"),
    (SPATIAL + "cells = 3", "cells has no effect with h_list"),
], ids=["coeff", "w0-mode", "w0-smooth", "source", "steps", "cells"])
def test_parse_rejects_keys_nothing_reads(text, what):
    # keys the chosen kinds or axis do not read used to be dropped without a word
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [f"line {len(text.splitlines())}: {what}"]


def test_cli_non_finite_coefficient_exits_nonzero_without_csv(tmp_path, capsys):
    cfgfile = tmp_path / "inf.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(CUSTOM.replace("coeff.scale = 1", "coeff.scale = inf")
                       + f"\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    assert "scale must be finite" in capsys.readouterr().err


def test_cli_non_finite_study_exits_nonzero_without_csv(tmp_path, capsys):
    # kappa = 0 and a source growing like t over T = 1e300: the states overflow,
    # and the one error line is all that reaches stderr (no numpy warnings)
    cfgfile = tmp_path / "huge.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(
        "preset = custom\nalpha = 0.5\nfinal_time = 1e300\ncells = 16\n"
        "tau_list = 2.5e299 1.25e299\ncoeff.kind = constant\ncoeff.scale = 0\n"
        "w0.kind = zero\nsource.kind = chi\nsource.a = 0\nsource.b = 0.5\n"
        f"source.exponent = 1\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solve produced non-finite states")


def test_cli_zero_errors_write_nan_rate(tmp_path, capsys):
    # kappa(t) = t over T = 1e300 damps every state to zero: both errors are
    # zero, and their rate is NaN, the documented mark of a zero error
    cfgfile = tmp_path / "zero.txt"
    out = tmp_path / "zero.csv"
    cfgfile.write_text(CUSTOM.replace("final_time = 1", "final_time = 1e300")
                       .replace("tau_list = 1/4 1/8 1/16", "tau_list = 2.5e299 1.25e299")
                       .replace("coeff.exponent = 2.01", "coeff.exponent = 1")
                       + f"\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 0
    assert capsys.readouterr().err == ""
    (block,) = read_csv(out)
    assert block.errors == [0.0, 0.0]
    assert len(block.rates) == 1 and math.isnan(block.rates[0])
    assert out.read_text(encoding="utf-8").splitlines()[-1].endswith(",nan")


@pytest.mark.parametrize("law, old, new", [
    ("coefficient", "coeff.exponent = 2.01", "coeff.exponent = 1e6"),
    ("source time factor", "source.kind = zero",
     "source.kind = chi\nsource.a = 0\nsource.b = 0.5\nsource.exponent = 1e6")],
    ids=["coefficient", "source"])
def test_cli_overflowing_power_law_exits_nonzero(tmp_path, capsys, law, old, new):
    cfgfile = tmp_path / "pow.txt"
    out = tmp_path / "never.csv"
    cfgfile.write_text(CUSTOM.replace("final_time = 1", "final_time = 1e5")
                       .replace("tau_list = 1/4 1/8 1/16", "tau_list = 25000 12500")
                       .replace(old, new) + f"\noutput = {out}\n")
    assert main(["--config", str(cfgfile)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: " + law) and "overflows at t = " in err


def test_print_table_huge_resolutions_are_not_one_over_zero():
    # above 1e9, round(1/r) is 0; the header printed 1/0 for every column
    table = RateTable(label="big", axis="temporal", resolutions=[2.5e299, 1.25e299],
                      errors=[1.0, 0.5])
    buf = io.StringIO()
    print_table(table, buf)
    assert buf.getvalue().splitlines()[0].split() == ["big", "2.5e+299", "1.25e+299"]


def test_print_table_keeps_three_digit_exponents_apart():
    table = RateTable(label="tiny", axis="spatial", resolutions=[1 / 32, 1 / 64],
                      errors=[1.507e-153, 6.774e-154])
    buf = io.StringIO()
    print_table(table, buf)
    assert buf.getvalue().splitlines()[1].split() == ["E_h", "1.507E-153", "6.774E-154"]


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
    with pytest.raises(ConfigError, match="w0.smooth has no effect with w0.kind = chi"):
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
