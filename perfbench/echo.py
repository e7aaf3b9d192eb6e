"""Echo side of udp-pingpong: reflect every ping on the echo topic.

Started by ``pingpong.py`` as a child process. It pumps its participant
inline, stops on SIGTERM or when its parent goes away, and prints
``echoed <n>`` on exit.
"""

from __future__ import annotations

import argparse
import os
import random
import signal

from common import use_program_sources


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peer", required=True, help="ping side as host:port")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    host, port = args.peer.rsplit(":", 1)

    use_program_sources()
    from minidds import idl
    from minidds.dcps import DomainParticipant
    from pingpong import PING_IDL, create_endpoints, free_udp_port

    running = True

    def stop(_signum, _frame):
        nonlocal running
        running = False

    signal.signal(signal.SIGTERM, stop)
    parent = os.getppid()
    descriptor, = idl.parse_idl(PING_IDL)
    participant = DomainParticipant(0, port=free_udp_port(), bind_host=host,
                                    static_peers=[(host, int(port))],
                                    rng=random.Random(args.seed + 1))
    echoed = 0

    def on_ping(reader):
        nonlocal echoed
        for sample, _info in reader.take():
            writer.write(sample)
            echoed += 1

    writer, _reader = create_endpoints(participant, descriptor, "echo", on_ping)
    try:
        while running and os.getppid() == parent:
            participant.transport.wait(0.005)
            participant.spin_once()
    finally:
        participant.close()
    print(f"echoed {echoed}", flush=True)


if __name__ == "__main__":
    main()
