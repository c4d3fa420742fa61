"""Write ``expected.json``: the frozen outcomes the correctness gate uses.

Run from the repository root only when the expectations are meant to
change (a new fixed call, or an accepted change of lex-first order):

    python3 perfbench/freeze.py

It records statuses, routes and certificate digests, never node counts:
node counts may drop (symmetry pruning) while certificates stay fixed.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def _tree():
    return defaultdict(_tree)


def main() -> int:
    sys.path.insert(0, str(W.SRC))
    import cordant as C

    out: dict = {"exhaust": {}, "construct": {"sweep": {}, "ek": {}}}
    calls = W._build_exhaust(random.Random(0), C, _tree())
    for call in sorted(calls, key=lambda c: c.label):
        if call.label.startswith("tree#") or " (repeat " in call.label:
            continue
        value = W.invoke(call, C, in_process=False)
        entry = {"status": value.status}
        if value.status == "Found":
            entry["digest"] = W.search_digest(value)
        out["exhaust"][call.label] = entry

    for n in range(2, 65):
        for spec in C.abelian_groups_of_order(n):
            result = C.construct_path_antimagic(spec)
            out["construct"]["sweep"][W.group_key(spec.factors)] = {
                "status": result.status, "route": result.route}
    for n, k in W.EK_FIXED:
        result = C.construct_path_ek(n, k)
        out["construct"]["ek"][f"{n},{k}"] = {
            "status": result.status, "route": result.route}

    report = C.explore_conjecture(W.SURVEY_N_MAX)
    out["survey"] = {
        "rows": len(report.rows),
        "violations": [[r.n, list(r.group.factors), r.tree_index]
                       for r in report.violations],
        "unknown": len(report.unknown_rows),
        "digest": W.survey_digest(report),
    }
    W.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {W.EXPECTED.relative_to(W.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
