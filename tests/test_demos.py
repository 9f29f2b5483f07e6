"""Every demo script runs to completion against the current package."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    # A clean argv: demo 05 writes its CSV to argv[1] when one is given.
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
