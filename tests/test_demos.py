"""Every demo script, and the README's examples, run against the current package."""

import runpy
import shlex
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


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_section(title):
    """The README's text from the ``## title`` heading to the next heading of that level."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_start_runs(capsys):
    code = readme_section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) < 0
    assert lines[2] == "True"


def test_readme_index_commands_print_what_they_claim(capsys):
    from ptmoments.cli import main

    claims = [line.split("# ->") for line in readme_section("Command line").splitlines()
              if line.startswith("ptmoments index ")]
    assert len(claims) == 2
    for command, claimed in claims:
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == claimed.strip() + "\n"
