"""Command line front end.

Three tool families: ``idl check`` validates type definition files,
``fom map`` turns a federation object model into a topic/QoS table, and
``bench latency``/``bench throughput`` run the measurement harnesses.
Exit codes: 0 on success, 2 for configuration or input errors, 3 when
discovery never produced a match.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from minidds import fom, idl, qos
from minidds.bench.errors import BenchConfigError, NoMatchWithinTimeout
from minidds.dcps.errors import InvalidQosError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_MATCH = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_peers(text: Optional[str]) -> list[tuple[str, int]]:
    peers = []
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise BenchConfigError(f"peer {part!r} is not host:port")
        try:
            peers.append((host, int(port)))
        except ValueError:
            raise BenchConfigError(f"peer {part!r} has a bad port") from None
    return peers


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise BenchConfigError(f"sizes {text!r} must be integers") from None


def _load_qos(path: Optional[str]):
    return qos.load_qos_file(path) if path else None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_idl_check(args) -> int:
    source = _read(args.file)
    try:
        types = idl.parse_idl(source)
    except idl.ParseError as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(idl.print_idl(types), end="")
    return EXIT_OK


def _cmd_fom_map(args) -> int:
    model = fom.parse_fom(_read(args.file))
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    overrides = fom.parse_type_map(_read(args.types)) if args.types else {}
    topics = fom.map_to_topics(model)
    default_type = fom.blob_type().name
    print(f"{'topic':<40}{'reliability':<14}{'order':<26}type")
    for name, profile in topics:
        reliability = profile.value(qos.QosPolicyId.RELIABILITY).kind.name
        order = profile.value(qos.QosPolicyId.DESTINATION_ORDER).kind.name
        type_name = overrides.get(name, default_type)
        print(f"{name:<40}{reliability:<14}{order:<26}{type_name}")
    return EXIT_OK


def _cmd_bench_latency(args) -> int:
    from minidds import bench

    settings = _load_qos(args.qos)
    timeout = {} if args.match_timeout is None else {
        "match_timeout_s": args.match_timeout}
    if args.selftest:
        trace, summary = bench.run_selftest(
            payload_size=args.payload, rate_hz=args.rate, count=args.count,
            qos_settings=settings)
    elif args.role == "ping":
        trace, summary = bench.run_latency(
            "ping", payload_size=args.payload, rate_hz=args.rate,
            count=args.count, qos_settings=settings, domain_id=args.domain,
            port=args.port, peers=_parse_peers(args.peers), **timeout)
    else:
        echoed = bench.run_latency(
            "echo", payload_size=args.payload, rate_hz=args.rate,
            count=args.count, qos_settings=settings, domain_id=args.domain,
            port=args.port, peers=_parse_peers(args.peers), **timeout)
        print(f"echoed {echoed}")
        return EXIT_OK
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(bench.emit_csv(trace))
    if args.reference == "table1":
        print(bench.render_table1(summary))
    else:
        print(bench.render_summary(summary))
    print(f"samples {summary.sample_count}  lost {summary.loss_count}")
    return EXIT_OK


def _cmd_bench_throughput(args) -> int:
    from minidds import bench

    results = bench.run_throughput(
        _parse_sizes(args.sizes), args.duration,
        qos_settings=_load_qos(args.qos), domain_id=args.domain,
        base_port=args.base_port)
    print(bench.render_results(results))
    if args.reference == "table2":
        measured = {r.requested_size: r.mbits_per_s for r in results}
        print(bench.render_table2(measured))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minidds", description="publish/subscribe middleware tools")
    commands = parser.add_subparsers(dest="command", required=True)

    p_idl = commands.add_parser("idl", help="type definition tools")
    idl_sub = p_idl.add_subparsers(dest="subcommand", required=True)
    p_check = idl_sub.add_parser("check", help="parse and echo a type file")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_idl_check)

    p_fom = commands.add_parser("fom", help="federation object model tools")
    fom_sub = p_fom.add_subparsers(dest="subcommand", required=True)
    p_map = fom_sub.add_parser("map", help="map a model to topics and QoS")
    p_map.add_argument("file")
    p_map.add_argument("--types", help="topic=type override file")
    p_map.set_defaults(func=_cmd_fom_map)

    p_bench = commands.add_parser("bench", help="measurement harnesses")
    bench_sub = p_bench.add_subparsers(dest="subcommand", required=True)

    p_lat = bench_sub.add_parser("latency", help="round-trip latency")
    p_lat.add_argument("--role", choices=("ping", "echo"), default="ping")
    p_lat.add_argument("--payload", type=int, default=100,
                       help="payload size in bytes")
    p_lat.add_argument("--rate", type=float, default=100.0, help="samples/s")
    p_lat.add_argument("--count", type=int, default=1000)
    p_lat.add_argument("--qos", help="QoS settings file")
    p_lat.add_argument("--domain", type=int, default=0)
    p_lat.add_argument("--peers", help="comma-separated host:port list")
    p_lat.add_argument("--port", type=int, help="local UDP port")
    p_lat.add_argument("--csv", help="write the trace here")
    p_lat.add_argument("--reference", choices=("table1",),
                       help="print reference statistics beside results")
    p_lat.add_argument("--match-timeout", type=float, default=None,
                       help="seconds to wait for discovery")
    p_lat.add_argument("--selftest", action="store_true",
                       help="run both roles in this process")
    p_lat.set_defaults(func=_cmd_bench_latency)

    p_thr = bench_sub.add_parser("throughput", help="saturating throughput")
    p_thr.add_argument("--sizes", default="10,100,1000,5000",
                       help="comma-separated payload sizes")
    p_thr.add_argument("--duration", type=float, default=1.0,
                       help="seconds per size")
    p_thr.add_argument("--qos", help="QoS settings file")
    p_thr.add_argument("--domain", type=int, default=0)
    p_thr.add_argument("--base-port", type=int, help="first local UDP port")
    p_thr.add_argument("--reference", choices=("table2",),
                       help="print reference throughput beside results")
    p_thr.set_defaults(func=_cmd_bench_throughput)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoMatchWithinTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        for writer_guid, reader_guid, report in exc.reports:
            print(f"  {writer_guid} -> {reader_guid}: {report.describe()}",
                  file=sys.stderr)
        return EXIT_NO_MATCH
    except (BenchConfigError, fom.FomError, qos.QosFileError, InvalidQosError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
