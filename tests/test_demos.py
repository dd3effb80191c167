"""Every demo runs to the end: exit code 0, nothing on stderr, and the same
stdout bytes as when its digest was pinned."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rnlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout, computed before the estimators' bound ladder
# shared one partition plan
STDOUT_SHA256 = {
    "adversarial_weights": "7f24d8ee0eee683b1b91b7cdbf6dff65b00c28b410c14d78c492331365acee38",
    "distance_oracles": "f51bea79b8170cfaa8af287b6d3e7c8d412e5dcdb7f27500a91d0b152d0bb707",
    "local_blindness": "3a2e23dd4aeb948279054370f68dd26c0689d4bc6f746184d7c6d9d4f54f2f31",
    "orbit_tree_limit": "31b7cb232ccc2d63c362a20e5cf52c58fcfbf4d1cc69e2118575e33ec2f6f65b",
    "partition_and_estimate": "6c827e986f21c1354602ded7135448a06c0b26c04b62f9d653f2fc3a27387e57",
    "phase_transition": "8316ef1b7a2bdb8608c620849c67937df0dffa78c7e7539436b3d64f924d54c0",
    "tester_walkthrough": "7253aae8a864b120fa8f33d7f61369b8a06d312e484eef30bd9e30ce87b9f95a",
}


def test_every_demo_is_found():
    assert len(DEMOS) >= 7
    assert sorted(STDOUT_SHA256) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rnlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
