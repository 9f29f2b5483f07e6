"""Every demo script runs to completion against the current package."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    # A clean argv: demo 05 writes its CSV to argv[1] when one is given.
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_measured_table_demo_is_repeatable_and_cleans_up(tmp_path, monkeypatch, capsys):
    # Demo 06 writes its table under the temp directory; it must print no
    # random path and leave nothing behind.
    path = next(p for p in DEMOS if p.name.startswith("06_"))
    monkeypatch.setattr(sys, "argv", [str(path)])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outputs = []
    for _ in range(2):
        runpy.run_path(str(path), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert list(tmp_path.iterdir()) == []
