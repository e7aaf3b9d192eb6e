"""A/B benchmark: a base revision's ``src/`` against this checkout's.

    python3 tools/bench_ab.py --base REV [--pairs 10] [--seconds 20]
        [--out BENCH_<n>.json] [--smoke]

Both sides run this checkout's ``perfbench/`` and ``BENCHMARK.json``, so
only ``src/`` differs. The base side is ``git archive REV src``
extracted into a temporary directory beside a copy of those two; the
change side is this checkout as it is, uncommitted edits included. Each
pair runs ``perfbench/run.py --workload W --seconds S --seed <pair>`` on
both sides, one after the other, for each workload ``BENCHMARK.json``
gates; the side that goes first alternates from pair to pair, so a
drift in machine speed favours neither.

For each workload and end-to-end metric of ``BENCHMARK.json`` the
summary gives each side's median, quartiles, minimum and maximum, the
median and quartiles of the per-pair ratio change / base, and how many
pairs the change won (better in the metric's direction), tied and ran.
It records the interpreter, ``os.cpu_count()`` and both SHAs. The
summary is printed as JSON, and written to ``--out`` when given.
``--smoke`` passes ``--smoke`` to every run (small inputs), for a quick
check that the tool works. Exits 1 when any run failed or reported
incorrect output. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linearly interpolated
    between the sorted values, as ``perfbench`` reports percentiles."""
    if not values:
        raise ValueError("quartiles of no values")
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric over ``pairs`` of (base, change) values: each side's
    median, quartiles, minimum and maximum, the pairs the change won and
    tied, where ``better`` ("lower" or "higher") says which way is a win,
    and the median and quartiles of the per-pair ratio change / base (None
    when every base is 0). The ratio compares each pair's two runs, which
    share a seed and a stretch of machine time, so it shows a change
    smaller than the spread between runs of one side."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "higher" else -1
    won = sum(sign * (change - base) > 0 for base, change in pairs)
    tied = sum(change == base for base, change in pairs)
    out: dict = {"better": better, "pairs": len(pairs), "won": won, "tied": tied}
    for side, index in (("base", 0), ("change", 1)):
        values = [pair[index] for pair in pairs]
        q1, median, q3 = quartiles(values)
        out[side] = {"median": median, "q1": q1, "q3": q3,
                     "min": min(values), "max": max(values), "values": values}
    ratios = [change / base for base, change in pairs if base != 0]
    if ratios:
        q1, median, q3 = quartiles(ratios)
        out["ratio"] = {"median": median, "q1": q1, "q3": q3, "pairs": len(ratios)}
    else:
        out["ratio"] = None
    return out


def first_side(pair: int) -> str:
    """Which side runs first in pair ``pair`` (counted from 0)."""
    return "base" if pair % 2 == 0 else "change"


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def _base_tree(rev: str, into: Path) -> None:
    """``src/`` at ``rev``, beside this checkout's ``perfbench/`` and
    ``BENCHMARK.json``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter refuses links and paths out of ``into``, where
        # the interpreter has it (3.10.12, 3.11.4 and later).
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")


def _run(tree: Path, workload: str, seconds: float, seed: int,
         smoke: bool) -> Optional[dict]:
    """One benchmark run in ``tree``: its last output line, parsed, or
    None when it printed none."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None:
        result["returncode"] = done.returncode
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, help="where to write the summary JSON")
    parser.add_argument("--smoke", action="store_true", help="small inputs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    gated = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in gated["workloads"]]
    metrics = {m["name"]: m["better"] for m in gated["end_to_end"]}
    base_sha = _git("rev-parse", f"{args.base}^{{commit}}")
    summary: dict = {
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"sha": _git("rev-parse", "HEAD"),
                   "src_edited": bool(_git("status", "--porcelain", "--", "src"))},
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "pairs": args.pairs, "seconds": args.seconds, "smoke": args.smoke,
        "order": "base first in even pairs (0, 2, ...), change first in odd ones; "
                 "pair i runs seed i + 1 on both sides",
        "workloads": {},
    }
    values: dict = {w: {m: [] for m in metrics} for w in workloads}
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as base_dir:
        trees = {"base": Path(base_dir), "change": ROOT}
        _base_tree(base_sha, trees["base"])
        for pair in range(args.pairs):
            order = ("base", "change") if first_side(pair) == "base" else ("change", "base")
            for workload in workloads:
                results = {}
                for side in order:
                    result = _run(trees[side], workload, args.seconds, pair + 1, args.smoke)
                    results[side] = result
                    if result is None or result["returncode"] != 0 or not result["correct"]:
                        failures.append(f"pair {pair + 1} {workload} {side}: "
                                        f"{'no result' if result is None else 'incorrect'}")
                if any(r is None for r in results.values()):
                    continue
                for name in metrics:
                    got = [results[side]["metrics"].get(name) for side in ("base", "change")]
                    if all(g is not None for g in got):
                        values[workload][name].append((got[0]["value"], got[1]["value"]))
                print(f"pair {pair + 1}/{args.pairs} {workload}: " + " ".join(
                    f"{name} {pairs[-1][0]:.6g} -> {pairs[-1][1]:.6g}"
                    for name, pairs in values[workload].items() if pairs),
                    file=sys.stderr, flush=True)
    for workload, by_metric in values.items():
        summary["workloads"][workload] = {
            name: summarize(pairs, metrics[name]) for name, pairs in by_metric.items() if pairs}
    summary["failures"] = failures
    text = json.dumps(summary, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
