"""The README's Python examples and CLI examples run against the library as it is."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orthochan.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
CLI_BLOCK = re.search(r"^## CLI examples\n\n```sh\n(.*?)^```", README, re.DOTALL | re.MULTILINE).group(1)
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("orthochan ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 6


@pytest.mark.parametrize("line", CLI_LINES, ids=[shlex.split(line)[1] for line in CLI_LINES])
def test_readme_cli_example_exits_0(line, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(shlex.split(line)[1:] + ["--out", str(out)]) == 0
    assert out.read_text()
    assert "error:" not in capsys.readouterr().err
