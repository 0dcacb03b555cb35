"""Every demo script runs to completion against the source tree and prints pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

# SHA-256 of each demo's stdout
DEMO_DIGESTS = {
    "01": "d5e5c31922d4f0eeddce11662297134092b7e34e0f2f2ff19c56942de0af28cb",
    "02": "3dd84755369a83172e3b211ea4ff886ea2f574f0d6af1ad44c581c381f91ffaf",
    "03": "f2b17e279f3bc7ad0f3c4ceb15b433dc5c3e2819b97f712ad945fe0431748f83",
    "04": "450ac204b1ef13d12f7cedc66775283e05c3ca087f2c8f71a99d9ed949b00222",
}


def test_every_demo_is_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name[:2]]
