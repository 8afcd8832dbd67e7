#!/usr/bin/env python3
"""
Interleaved benchmark pairs: a parent revision against this source tree.

    python3 tools/bench_pairs.py --parent HEAD --workloads tcp-wide \\
        --seeds 101-110 --seconds 30 --out BENCH_engine.json [--traced]

The parent side is the revision's committed files, exported with
`git archive` into a temporary directory; the change side is the tree
this script sits in, uncommitted edits included.  For each workload and
seed, both sides run `pirbench/run.py --trace 0` with the same seed and
length, one after the other: the parent first on the first seed, the
change first on the next, and so on.  With --traced, each side then
makes one traced run of each workload on seed 1.

The output has the layout of the committed BENCH_*.json files: per
workload and end-to-end metric, each side's runs (the last JSON line's
values), their median and quartile distance (IQR, numpy's linear
percentiles), and in how many pairs the change read better, by the
direction BENCHMARK.json gives; a relative difference under 1e-9 is a
tie and counts for neither side.  Exits 1 if any run is incorrect or
fails an operation, after writing the file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIE = 1e-9
COMMAND = "python3 pirbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
TRACE_COMMAND = "python3 pirbench/run.py --workload W --seed 1 --seconds {seconds} --trace 1"


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '1,5,9' as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def export(revision: str, target: Path) -> str:
    """Write the committed files of `revision` into `target`; return its hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run in `tree`: its last JSON line."""
    command = [
        sys.executable, "pirbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, IQRs and the change's wins over paired runs of one metric."""
    sign = 1 if better == "higher" else -1
    wins = 0
    for old, new in zip(parent, change):
        scale = max(abs(old), abs(new))
        if scale and abs(new - old) / scale >= TIE and sign * (new - old) > 0:
            wins += 1

    def iqr(values):
        low, high = np.percentile(values, [25, 75])
        return float(high - low)

    return {
        "parent_median": float(np.median(parent)),
        "parent_iqr": iqr(parent),
        "change_median": float(np.median(change)),
        "change_iqr": iqr(change),
        "change_better": wins,
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def pair_workload(trees: dict, workload: str, seeds, seconds: float, directions: dict) -> dict:
    runs = {"parent": [], "change": []}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seed, seconds, traced=False)
            runs[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(
                f"{workload} seed {seed} {side}: correct={result['correct']} "
                f"failed={result['failed']} "
                + " ".join(f"{name}={values[name]:.6g}" for name in directions),
                file=sys.stderr,
                flush=True,
            )
    return {
        "seeds": list(seeds),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in results) for side, results in runs.items()},
        "metrics": {
            name: summarize(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                better,
            )
            for name, better in directions.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workloads", default="local-533,tcp-533,tcp-wide")
    parser.add_argument("--seeds", default="101-110", help="'101-110' or '1,5,9'")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", action="store_true", help="add one traced run per side")
    parser.add_argument("--note", default="", help="text stored as the file's 'note'")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        parent_tree = Path(scratch)
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        doc = {
            "command": COMMAND.format(seconds=f"{args.seconds:g}"),
            "note": args.note,
            "parent_commit": commit,
            "machine": {
                "cpus": len(os.sched_getaffinity(0)),
                "arch": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "pairs": {},
        }
        for workload in args.workloads.split(","):
            doc["pairs"][workload] = pair_workload(
                trees, workload, seeds, args.seconds, directions
            )
        if args.traced:
            doc["trace_command"] = TRACE_COMMAND.format(seconds=f"{args.seconds:g}")
            doc["traced"] = {}
            for workload in args.workloads.split(","):
                doc["traced"][workload] = {}
                for side, tree in trees.items():
                    result = run_once(tree, workload, 1, args.seconds, traced=True)
                    doc["traced"][workload][side] = {
                        key: result[key] for key in ("correct", "failed", "metrics")
                    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    clean = all(
        pairs["all_correct"] and not any(pairs["failed"].values())
        for pairs in doc["pairs"].values()
    ) and all(
        run["correct"] and not run["failed"]
        for sides in doc.get("traced", {}).values()
        for run in sides.values()
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
