"""`benchmarks/output_digest.py` runs and prints well-formed digest lines.

Diffing its output between two checkouts is how a change shows that every
result stayed byte-identical, so a script that crashes, prints a partial
list or repeats a name would make that check pass vacuously.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "output_digest.py"
LINE = re.compile(r"([0-9a-f]{64})  (\S+)")


def test_output_digest_prints_sorted_unique_digests():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) >= 200
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    names = [m.group(2) for m in matches]
    assert len(set(names)) == len(names)
    assert names == sorted(names)
