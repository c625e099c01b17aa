"""Every demo script runs to completion, under the suite's warning filter."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a demo may write files into its working directory
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
