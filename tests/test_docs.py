"""The documented entry points run: the README quick start and the demos
that exercise the Markov shift, the census, the tangent cocycle and the
word-count bounds."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import henonshift

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


@pytest.mark.parametrize(
    "demo",
    [
        "01_markov_shift_mme.py",
        "02_periodic_orbit_census.py",
        "03_henon_conditions.py",
        "04_word_dimension_bounds.py",
    ],
)
def test_demo_runs(demo):
    # the demo runs against the same source tree this test imported
    src = str(Path(henonshift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
