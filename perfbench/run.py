"""minidds benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload reliable-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds``;
``--trace 1`` runs a fixed amount of the workload twice, untraced and then
with spans around every layer, and reports the per-layer metrics. Each
run checks what was delivered against the generated inputs. The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when ``correct``.
``--workload all`` (the default) runs each workload that BENCHMARK.json
gates in its own process; udp-pingpong runs only when named.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from common import OUT, MissingProgram, peak_rss_mib, run_context, use_program_sources

WORKLOAD_NAMES = ("reliable-stream", "keyed-fanout", "udp-pingpong")
GATED = ("reliable-stream", "keyed-fanout")  # the workloads in BENCHMARK.json
# The gated end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"),
              ("payload_mbit_per_s", "Mbit/s"), ("peak_rss_mib", "MiB"))
# udp-pingpong reports latency instead of throughput (see README.md).
UNITS = dict(END_TO_END, latency_p50_us="us", latency_p90_us="us")


@dataclass(frozen=True)
class Workload:
    run: Callable
    settings: object
    smoke: object
    transport: str
    open_loop: bool

    def measure(self, seed: int, settings, seconds: float, fixed_work: bool,
                tracer=None):
        if self.open_loop:
            return self.run(seed, settings, seconds=seconds, tracer=tracer)
        if fixed_work:
            return self.run(seed, settings, rounds=settings.traced_rounds, tracer=tracer)
        return self.run(seed, settings, seconds=seconds, tracer=tracer)


def _workloads() -> dict[str, Workload]:
    import inproc
    import pingpong
    return {
        "reliable-stream": Workload(inproc.run_reliable_stream, inproc.StreamSettings(),
                                    inproc.STREAM_SMOKE, "in-process", False),
        "keyed-fanout": Workload(inproc.run_keyed_fanout, inproc.FanoutSettings(),
                                 inproc.FANOUT_SMOKE, "in-process", False),
        "udp-pingpong": Workload(pingpong.run_udp_pingpong, pingpong.PingSettings(),
                                 pingpong.PING_SMOKE, "UDP loopback", True),
    }


def run_one(args) -> int:
    from minidds.bench.reference import render_table1, render_table2
    from tracing import PER_LAYER, Tracer, per_layer_metrics, protocol_counts

    workload = _workloads()[args.workload]
    settings = workload.smoke if args.smoke else workload.settings
    context = run_context(args.workload, args.seed, args.seconds,
                          workload.transport, args.smoke)
    report: dict = {"context": context}
    if args.trace:
        untraced = workload.measure(args.seed, settings, args.seconds, True)
        tracer = Tracer()
        traced = workload.measure(args.seed, settings, args.seconds, True, tracer)
        runs = (untraced, traced)
        metrics = per_layer_metrics(tracer, traced, untraced, workload.open_loop)
        units = {name: unit for name, unit, _better, _moves in PER_LAYER}
        notes = {name: moves for name, _unit, _better, moves in PER_LAYER}
        report["counts"] = protocol_counts(tracer, traced)
        spans = OUT / f"{args.workload}-spans.tsv"
        tracer.write_spans(spans)
        report["spans"] = str(spans.relative_to(OUT.parent.parent))
    else:
        outcome = workload.measure(args.seed, settings, args.seconds, False)
        runs = (outcome,)
        metrics = dict(outcome.metrics, peak_rss_mib=peak_rss_mib())
        units = UNITS
        notes = {}
        report["diagnostics"] = outcome.diagnostics
    problems = [p for r in runs for p in r.problems]
    result = {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    report.update(result, problems=problems)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in context.items()))
    for name, value in metrics.items():
        note = f"  -> {notes[name]}" if name in notes else ""
        print(f"  {name:<40} {value:>16.6g} {units[name]:<8}{note}")
    for name, value in report.get("diagnostics", {}).items():
        print(f"  {name:<40} {value:>16.6g}  (diagnostic, not gated)")
    for name, value in report.get("counts", {}).items():
        print(f"  {name:<40} {value:>16}  (count; repeats for a seed in-process)")
    print(f"  failed_fraction {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    print("context, not targets:")
    print(render_table1() if workload.open_loop else render_table2())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each gated workload in its own process, so peak memory is its own.
    The last line groups each workload's metrics under its name, because
    the same metric names repeat across workloads."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for name in GATED:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if done.returncode != 0 or result is None:
            status = 1
            merged["correct"] = False
        if result is None:
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["workloads"][name] = result["metrics"]
    print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_program_sources()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
