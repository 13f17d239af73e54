"""Each demo runs as a script and prints its headline numbers."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent

HEADLINES = {
    "lines_on_quintic.py": [
        "lines on the quintic threefold: 2875",
        "top Chern class: 2875*s[3, 3]",
        "lines on the cubic surface: 27",
        "conics on the (5,) complete intersection in P^4: 609250",
        "conics on the (2, 2, 2, 2) complete intersection in P^7: 9728",
    ],
    "conics_on_quintic.py": [
        "conics on the quintic threefold: 609250",
        "pipeline count: 609250",
        "total moduli dimension: 11",
    ],
    "degenerate_quintics.py": [
        "lines absorbed by the degree-1 factor (hyperplane): 1275",
        "lines absorbed by the degree-4 factor (quartic): 1600",
        "lines absorbed by the degree-2 factor (quadric): 1300",
        "lines absorbed by the degree-3 factor (cubic): 1575",
        "cubic surface split: degree 1: 15, degree 2: 12",
        "187850 + 258200 + 163200 == conics()  ->  holds",
    ],
    "schubert_playground.py": [
        "sigma(1) * sigma(1)   = s[1, 1] + s[2]",
        "integral of sigma(1)^4 on Gr(2,4): 2",
        "integral of sigma(1)^6 on Gr(2,5): 5",
        "giambelli((2,1)) on Gr(2,5) = s[2, 1]",
    ],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_prints_headlines(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for headline in HEADLINES[name]:
        assert headline in lines
    assert "FAIL" not in proc.stdout
