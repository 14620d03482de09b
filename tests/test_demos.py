"""Every demo script and every Python example of README.md runs to
completion against the package in src/, and README.md's table of
estimate statuses lists every reason an estimate entry can carry."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ttckit.errors import _ALL_PARALLEL, _FEW_FLOWS, _REASONS, _STATUS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_python(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr + done.stdout


def test_demos_found():
    assert DEMOS, "no demos/*.py"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_examples_found():
    assert README_EXAMPLES, "no ```python block in README.md"


@pytest.mark.parametrize("example", README_EXAMPLES, ids=lambda _: "python-block")
def test_readme_example_runs(example, tmp_path):
    run_python(["-c", example], tmp_path)


# rows of the README table: "| `status` | `message` ... | modes |"
README_REASON_ROWS = re.findall(r"^  \| `[^`]+` \| `.*$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
# the least-squares fit's own reasons abort the command instead of filling an entry
ENTRY_REASONS = sorted(set(_REASONS) - {_FEW_FLOWS, _ALL_PARALLEL})


@pytest.mark.parametrize("code", ENTRY_REASONS, ids=lambda code: _REASONS[code][1].split("{")[0].strip())
def test_readme_lists_reason(code):
    prefix = _REASONS[code][1].split("{")[0]
    assert any(
        row.startswith(f"  | `{_STATUS[code]}` | `{prefix}") for row in README_REASON_ROWS
    ), f"README.md's table of estimate statuses lacks {_STATUS[code]}: {_REASONS[code][1]}"
