"""Regenerate the bundled demo certificates under src/cordant/fixtures/.

Run from the repository root after changing certificate serialization
or the block construction:  python3 tools/gen_fixtures.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cordant.certificates import (
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    certificate_dumps,
    make_edge_certificate,
)
from cordant.constructions import construct_ant_path, construct_path_antimagic
from cordant.graphs import path_graph, tree_graph
from cordant.groups import GroupSpec
from cordant.labelings import EdgeLabeling

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "cordant" / "fixtures"

# demo 1: an order-8 tree over (Z2)^3 whose zero-free labeling exists even
# though the path of the same order has none
DEMO1_EDGES = ((0, 1), (1, 5), (0, 2), (0, 3), (0, 4), (4, 7), (3, 6))
DEMO1_LABELS = ((1, 1, 1), (1, 0, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1),
                (1, 1, 0), (0, 1, 0))


def fixture_texts() -> dict[int, str]:
    """The text of every bundled demo certificate, by number."""
    cube = GroupSpec((2, 2, 2))
    certs = {
        1: make_edge_certificate(
            NOTION_A_STAR_ANTIMAGIC, tree_graph(8, DEMO1_EDGES),
            EdgeLabeling(cube, DEMO1_LABELS)),
        2: make_edge_certificate(
            NOTION_EA_CORDIAL, path_graph(24),
            construct_ant_path(GroupSpec((8, 3)))),
        3: make_edge_certificate(
            NOTION_EA_CORDIAL, path_graph(24),
            construct_ant_path(GroupSpec((24,)))),
        # the pinned elementary-2 path labeling of order 8, as certified
        # by the construction
        4: construct_path_antimagic(cube).certificate,
    }
    for num, cert in certs.items():
        assert cert.verdict.ok, (num, cert.verdict)
    return {num: certificate_dumps(cert) + "\n" for num, cert in certs.items()}


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for num, text in fixture_texts().items():
        path = FIXTURES / f"demo{num}.json"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
