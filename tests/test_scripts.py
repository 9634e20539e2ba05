"""Smoke tests of the scripts in ``scripts/`` and of README's Python example,
run in-process on the s/e monoid."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import logrew

ROOT = Path(__file__).resolve().parent.parent
SE = str(ROOT / "presentations" / "se_monoid.txt")


def run_script(name, monkeypatch, capsys, *args):
    script = str(ROOT / "scripts" / name)
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(script, run_name="__main__")
    return capsys.readouterr().out


def test_survey_endorewrites(monkeypatch, capsys):
    out = run_script("survey_endorewrites.py", monkeypatch, capsys, SE)
    assert "completion: complete, 6 rules" in out
    assert "28 generating endorewrites" in out
    assert "  residual: 1\n" in out


def test_census_normal_forms(monkeypatch, capsys):
    out = run_script("census_normal_forms.py", monkeypatch, capsys, SE)
    lines = out.splitlines()
    assert lines[0] == "8 distinct elements among words of length <= 7"
    rows = {line.split("<-")[0].strip(): line.split("<-")[1].strip() for line in lines[1:]}
    assert rows["s s"] == "3 words"
    assert rows["e s e"] == "122 words"


@pytest.mark.parametrize("name, first_line", [
    ("survey_endorewrites.py", "completion: complete, 3 rules"),
    ("census_normal_forms.py", "382 distinct elements among words of length <= 7"),
])
def test_scripts_read_presentations_as_utf8(name, first_line):
    # a read in the locale's encoding misreads the letter aα where the
    # locale is not UTF-8; the warning for a read without an encoding,
    # made an error, catches it under any locale
    env = {"PATH": "/usr/bin:/bin", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(logrew.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(ROOT / "scripts" / name), str(ROOT / "presentations" / "escaped_letters.txt")],
        capture_output=True, encoding="utf-8", env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == first_line
    assert "aα" in proc.stdout


def test_readme_python_examples_run(monkeypatch):
    # each python block of README.md, run as written from the repo root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
