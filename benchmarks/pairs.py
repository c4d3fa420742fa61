"""Alternating benchmark pairs: a parent commit against this checkout.

Usage (from the repository root; needs git and the standard library):

    python3 benchmarks/pairs.py --parent HEAD~1 --workload construct \
        --seeds 301 302 --pairs 10 [--seconds 20]

Writes the committed files of ``--parent`` (``git archive``, so the
repository's own git state is left alone) into a temporary directory,
and the tracked files of this checkout, at their working-tree contents
(uncommitted edits included; a new file counts once it is ``git add``-ed),
into another, and runs the unmodified ``perfbench/run.py --trace 0`` in
each, one after the other, ``--pairs`` times per seed.  Neither copy holds
a ``__pycache__``: with ``PYTHONDONTWRITEBYTECODE=1`` both sides then
compile what they import, where stale ``.pyc`` files left in the
checkout would let the change skip that work and read as a gain.  Odd pairs
(the first, third, ...) run the change first, even pairs the parent
first, so a drift of the host's speed during a pair favours neither
side.  Each run is its own process, as the benchmark runs them.

Prints every pair's end-to-end metrics (``parent -> change``), then per
seed and metric the medians of both sides, the change's relative
difference, the interquartile range of the parent's runs, and how many
pairs the change won: a win is a strictly better value in the metric's
direction from ``BENCHMARK.json``.  A run that fails the benchmark's
gate is reported, and the script exits 1 after printing everything.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, ``lower`` or ``higher``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def extract(ref: str, into: Path) -> None:
    """The committed files of ``ref`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def working_tree(into: Path, root: Path = ROOT) -> None:
    """The files git tracks in ``root``, at their working-tree contents,
    under ``into``; nothing under a ``__pycache__`` directory."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=root,
                            capture_output=True, check=True).stdout
    for name in listed.decode().split("\0"):
        source = root / name
        if not name or "__pycache__" in Path(name).parts \
                or not source.is_file():
            continue
        target = into / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its gate verdict and
    end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {tree} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartile_gap(values: list[float]) -> float:
    """Upper minus lower quartile (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summarize(pairs: list[tuple[dict, dict]], better: dict) -> dict:
    """Per metric: both medians, the relative change, the parent's
    interquartile range and the change's wins."""
    out = {}
    for name, direction in better.items():
        rows = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not rows:
            continue
        parent = [p for p, _ in rows]
        change = [c for _, c in rows]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in rows)
        mp, mc = statistics.median(parent), statistics.median(change)
        out[name] = {"parent_median": mp, "change_median": mc,
                     "relative": (mc - mp) / mp if mp else 0.0,
                     "parent_iqr": quartile_gap(parent),
                     "wins": wins, "pairs": len(rows)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[301])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    better = directions()
    failed = False
    with tempfile.TemporaryDirectory(prefix="cordant-parent-") as tmp, \
            tempfile.TemporaryDirectory(prefix="cordant-change-") as tmp2:
        trees = {"parent": Path(tmp), "change": Path(tmp2)}
        extract(args.parent, trees["parent"])
        working_tree(trees["change"])
        for seed in args.seeds:
            pairs = []
            for i in range(1, args.pairs + 1):
                order = ("change", "parent") if i % 2 else ("parent", "change")
                runs = {side: run(trees[side], args.workload, seed,
                                  args.seconds)
                        for side in order}
                pairs.append((runs["parent"], runs["change"]))
                failed |= any(not r["correct"] for r in runs.values())
                print(f"seed {seed} pair {i} ({order[0]} first): " + "  ".join(
                    f"{name} {runs['parent']['metrics'][name]:.6g} -> "
                    f"{runs['change']['metrics'][name]:.6g}"
                    for name in better if name in runs["change"]["metrics"])
                      + "".join(f"  {side} FAILED the gate"
                                for side, r in runs.items()
                                if not r["correct"]), flush=True)
            for name, s in summarize(pairs, better).items():
                print(f"seed {seed} {name}: median {s['parent_median']:.6g} "
                      f"-> {s['change_median']:.6g} "
                      f"({100 * s['relative']:+.1f}%), parent IQR "
                      f"{s['parent_iqr']:.3g}, change wins "
                      f"{s['wins']}/{s['pairs']}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
