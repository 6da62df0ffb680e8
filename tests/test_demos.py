"""The demo scripts: each runs in-process and prints exactly the pinned output.

Each digest is the SHA-256 of everything the script printed to standard
output.  The demos print polynomials, series and classes through their
``repr``, so this also pins those formats.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = [
    ("01_base_curve_classes.py", "157b921c29f5a79e7b2002ab1c9bcbd9eb3784aa13f0acdce8f80b2a8b88e80c"),
    ("02_hilbert_series.py", "19011a248bab94c450c44bb43ebdf6e47c847f35b99100a16831aaee249af39c"),
    ("03_quotient_ring.py", "b88e36e1fc27604ff869461bcbe5feb4042d288a5148923e367f6c99082ca88e"),
    ("04_intersection_theory.py", "9cdf457a651e88cca31c460c828e8c22491b2abfe72151903fb6a842807cf47a"),
]


@pytest.mark.parametrize("name, digest", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_demo_output_is_unchanged(name, digest, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
