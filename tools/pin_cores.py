"""Regenerate the pinned searches in src/cordant/fixtures/cores.json.

The ``rainbow-cycle`` and ``sequence`` routes of
``construct_path_antimagic`` search for a harmonious core ordering or a
path labeling within a share of the default budget.  For every group of
order 2..64 where that share runs out, this runs the same search once
with no budget and pins what it finds, with the call and its node count
as provenance:

* ``rainbow-cycle``: a find-any a-cordial search on the cycle of the
  core's order, over the core in canonical form (see
  ``constructions._harmonious_core``); its labels start at 0;
* ``sequence``: a find-any antimagic search on the path, over the
  elementary 2-group.

Run from the repository root after changing the find-any search or a
route's core rule:

    python3 tools/pin_cores.py          # rewrite the file
    python3 tools/pin_cores.py --check  # regenerate in memory, exit 1 on drift

Both take several seconds on the pure kernel.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cordant import constructions
from cordant._vocab import (
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    STATUS_FOUND,
    STATUS_UNKNOWN,
)
from cordant.constructions import _harmonious_core, construct_path_antimagic
from cordant.graphs import cycle_graph, path_graph
from cordant.groups import abelian_groups_of_order
from cordant.search import _find_any

PINS = (pathlib.Path(__file__).resolve().parent.parent / "src" / "cordant"
        / "fixtures" / constructions._PINS_FILE)
ORDERS = range(2, 65)
ABOUT = ("Searches the construct_path_antimagic routes cannot finish within "
         "their default budget share, run once with no budget by "
         "tools/pin_cores.py: harmonious core orderings (rainbow-cycle) "
         "and path labelings (sequence), each with its call and node count.")


def unsettled() -> list[tuple[str, object]]:
    """(route, group searched) for every route call of order 2..64 that
    comes out Unknown at the default budget with no pins."""
    saved, constructions._pins = constructions._pins, {}
    try:
        out = []
        for n in ORDERS:
            for spec in abelian_groups_of_order(n):
                res = construct_path_antimagic(spec)
                if res.status == STATUS_UNKNOWN:
                    core = (_harmonious_core(spec)[0]
                            if res.route == "rainbow-cycle" else spec)
                    out.append((res.route, core))
        return out
    finally:
        constructions._pins = saved


def pin(route: str, spec) -> dict:
    """One unbounded search and its provenance."""
    factors = repr(spec.factors)
    if route == "rainbow-cycle":
        out = _find_any(cycle_graph(spec.order), spec, NOTION_A_CORDIAL,
                        budget=None, split=1)
        call = (f"_find_any(cycle_graph({spec.order}), GroupSpec({factors}), "
                f"NOTION_A_CORDIAL, budget=None, split=1)")
    else:
        out = _find_any(path_graph(spec.order), spec, NOTION_A_ANTIMAGIC,
                        budget=None)
        call = (f"_find_any(path_graph({spec.order}), GroupSpec({factors}), "
                f"NOTION_A_ANTIMAGIC, budget=None)")
    if out.status != STATUS_FOUND:
        raise SystemExit(f"error: {call} came out {out.status}")
    cert = out.certificate
    labels = cert.labels if route == "rainbow-cycle" else cert.edge_labels
    return {"route": route, "group": list(spec.factors),
            "nodes": out.nodes_explored, "call": call, "labels": labels}


def pins_text() -> str:
    """The file's text: one entry per unsettled route call, in sweep
    order, with its labels on one line."""
    entries = []
    for route, spec in unsettled():
        start = time.perf_counter()
        entry = pin(route, spec)
        print(f"{route} {spec}: {entry['nodes']} nodes, "
              f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
        head = ", ".join(f"{json.dumps(key)}: {json.dumps(entry[key])}"
                         for key in ("route", "group", "nodes", "call"))
        labels = json.dumps(entry["labels"], separators=(",", ":"))
        entries.append(f'    {{{head},\n     "labels": {labels}}}')
    return ('{\n  "about": ' + json.dumps(ABOUT) + ',\n  "pins": [\n'
            + ",\n".join(entries) + "\n  ]\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    text = pins_text()
    if args.check:
        if PINS.read_text(encoding="utf-8") != text:
            print(f"{PINS} differs from a fresh run", file=sys.stderr)
            return 1
        print(f"{PINS} is up to date")
        return 0
    PINS.write_text(text, encoding="utf-8")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
