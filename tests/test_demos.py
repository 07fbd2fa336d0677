"""Every demo script, and README's library quickstart, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, tmp_path):
    # TMPDIR keeps the files a script writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("scmfpga-demo-*")), "the demo left its temp directory"


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # first rmse_pc, rmse_fpga and max_output_delta, then the memory report
    assert len(proc.stdout.splitlines()[0].split()) == 3
