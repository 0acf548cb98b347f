"""Every demo under demos/ runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


def run_demo(demo: Path, *flags: str, **env_update: str):
    env = dict(os.environ, **env_update)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, str(demo)], cwd=ROOT,
                          env=env, capture_output=True, encoding="utf-8",
                          timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_a_demo_printing_a_degree_sign_runs_under_an_ascii_locale():
    # the C locale with UTF-8 mode off gives the demo an ASCII stdout
    demo = ROOT / "demos" / "02_node_lifecycle.py"
    result = run_demo(demo, "-X", "utf8=0", LC_ALL="C", LANG="C",
                      PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                      PYTHONIOENCODING="")
    assert result.returncode == 0, result.stderr
    assert "'\\xb0C'" in result.stdout
