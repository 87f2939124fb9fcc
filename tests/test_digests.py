"""Every pinned result against its committed digest.

``tests/data/result_digests.txt`` holds one line per result: a key
``route/kind/degrees`` and the SHA-256 of the result's canonical text, the
repr of ``(num.ints, num.denom, den.ints, den.denom)``. A change that alters
any series shows up here by key. Rebuild the table, after checking that the
change is meant, with ``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
from pathlib import Path

from poincare_series.closedform import all_ones, all_twos
from poincare_series.counting import KINDS, degree_multisets
from poincare_series.springer import poincare_series, single_form_series

TABLE = Path(__file__).resolve().parent / "data" / "result_digests.txt"

LADDER_ANCHORS = [(1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10)]
GROWTH = [
    (20,), (30,), (40,), (2,) * 14, (3,) * 8, (1,) * 13,
    (4, 5, 6, 7), (3, 3, 3, 3, 2, 2, 2, 2), (3, 4, 5, 6, 7),
]


def pinned():
    """key -> (route, argument) for every pinned result, in table order."""
    out = {}
    for kind in KINDS:
        for degs in degree_multisets(14, 7) + LADDER_ANCHORS + GROWTH:
            out[f"poincare_series/{kind}/{','.join(map(str, degs))}"] = (poincare_series, degs, kind)
        for d in range(1, 31):
            out[f"single_form_series/{kind}/{d}"] = (single_form_series, d, kind)
        for n in range(1, 15):
            out[f"all_ones/{kind}/{n}"] = (all_ones, n, kind)
            out[f"all_twos/{kind}/{n}"] = (all_twos, n, kind)
    return out


def digest(f) -> str:
    text = repr((f.num.ints, f.num.denom, f.den.ints, f.den.denom))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def computed() -> dict:
    return {key: digest(route(arg, kind)) for key, (route, arg, kind) in pinned().items()}


def committed() -> dict:
    lines = TABLE.read_text(encoding="ascii").splitlines()
    return dict(line.split(" ") for line in lines)


def test_table_covers_every_pinned_result():
    assert list(committed()) == list(pinned())


def test_every_result_matches_its_digest():
    table, now = committed(), computed()
    assert [key for key in table if now.get(key) != table[key]] == []


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("".join(f"{key} {value}\n" for key, value in computed().items()), encoding="ascii")
