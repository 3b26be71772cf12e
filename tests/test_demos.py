"""The demos run as scripts and print what they printed when pinned."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cell_walk_attack():
    done = run_demo("cell_walk_attack.py")
    assert done.returncode == 0, done.stderr
    lines = [line.strip() for line in done.stdout.splitlines()
             if "failures" in line]
    assert lines == [
        "c=1.0: failures 0/2000, CI (0.0000, 0.0019), bound 1.2131",
        "c=1.5: failures 0/2000, CI (0.0000, 0.0019), bound 0.6493",
        "c=2.0: failures 0/2000, CI (0.0000, 0.0019), bound 0.2707",
    ]
