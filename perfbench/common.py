"""Plumbing shared by the workloads: program location, results, statistics.

The benchmark measures the ``minidds`` sources of the checkout it sits in
(``<checkout>/src``), never an installed copy, so ``use_program_sources``
must run before anything imports ``minidds``.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import string
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


# About the median of ``calibrate()`` on a 2-vCPU Firecracker VM with
# CPython 3.11.7. There, the speed of pure-Python code swung by up to a
# factor of two within minutes and by tens of percent within a second.
# Timing the work in short segments, each scaled by the calibrations at
# its ends (``ReferenceTimer``), cut the quartile spread of reliable-stream
# throughput over ten runs from 0.26 (wall time) to 0.04.
REFERENCE_CALIBRATION_S = 0.007


class MissingProgram(Exception):
    """The checkout holds no minidds sources to measure."""


def use_program_sources() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "minidds" / "__init__.py").is_file():
        raise MissingProgram(f"no minidds sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Outcome:
    """What one workload run produced, before it is turned into metrics.

    ``metrics`` holds the end-to-end numbers, ``diagnostics`` the ungated
    ones, and ``counts`` the protocol counters that repeat exactly for a
    fixed seed and amount of work (in-process workloads only).
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    writes: int = 0           # samples written in the timed phase
    payload_bytes: int = 0    # their serialized payload bytes
    deliveries: int = 0       # distinct (sequence, destination participant) pairs
    timed_s: float = 0.0      # wall time of the timed phase

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not listed")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def calibrate() -> float:
    """Wall seconds a fixed piece of pure-Python work takes right now:
    small objects and dict and list traffic, the kind of interpreter work
    minidds does per sample. It depends on nothing in the program, and
    garbage collection is held off meanwhile, so the program's heap does
    not change the result either."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter_ns()
        table: dict[int, _Cell] = {}
        recent: list = []
        for i in range(10_000):
            table[i & 1023] = _Cell(i, i * 2)
            recent.append(table.get((i * 7) & 1023))
            if len(recent) > 256:
                recent.clear()
        return (time.perf_counter_ns() - began) / 1e9
    finally:
        if collecting:
            gc.enable()


def slowness(*calibrations: float) -> float:
    """How much slower than the reference the interpreter ran, from
    calibrations taken around a stretch of work (1.0 = reference speed).
    Dividing a wall time by it gives the time at reference speed."""
    return statistics.fmean(calibrations) / REFERENCE_CALIBRATION_S


class ReferenceTimer:
    """Times rounds of work at reference speed.

    The speed of the interpreter swings within a second, so a round is cut
    into segments of about ``SEGMENT_S``: ``lap()``, called often, closes
    a segment once it is due by running a calibration. A segment's wall
    time is divided by the slowness of the calibrations at its two ends.
    Calibrations are not timed: ``now()`` reads a clock that stands still
    while they run, so write and take stamps taken from it leave them out.
    """

    SEGMENT_S = 0.1

    def __init__(self):
        self._calibration = calibrate()
        self._timed_ns = 0          # timed wall time before the open segment
        self._began = time.perf_counter_ns()
        self._round_wall_ns = 0
        self._round_reference_s = 0.0

    def start(self) -> None:
        """Begin a round; the last calibration opens its first segment."""
        self._round_wall_ns = 0
        self._round_reference_s = 0.0
        self._began = time.perf_counter_ns()

    def now(self) -> int:
        """Timed nanoseconds so far, calibrations left out."""
        return self._timed_ns + time.perf_counter_ns() - self._began

    def lap(self) -> None:
        if time.perf_counter_ns() - self._began >= self.SEGMENT_S * 1e9:
            self._close_segment()

    def stop(self) -> tuple[float, float]:
        """End the round; returns its wall and reference-speed seconds."""
        self._close_segment()
        return self._round_wall_ns / 1e9, self._round_reference_s

    def _close_segment(self) -> None:
        wall_ns = time.perf_counter_ns() - self._began
        calibration = calibrate()
        self._timed_ns += wall_ns
        self._round_wall_ns += wall_ns
        self._round_reference_s += wall_ns / 1e9 / slowness(self._calibration, calibration)
        self._calibration = calibration
        self._began = time.perf_counter_ns()


def random_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_letters + string.digits, k=length))


def keep_going(started_ns: int, done: int, seconds: Optional[float],
               rounds: Optional[int]) -> bool:
    """Whether another round is due: a fixed count, or until ``seconds``."""
    if rounds is not None:
        return done < rounds
    return time.perf_counter_ns() - started_ns < seconds * 1e9


def repeated_setup(build: Callable[[], object], repeats: int):
    """Build ``repeats`` times and keep the last. Returns it with the
    median build time at reference speed and the median of its ``match_s``
    (discovery) part. Each discarded build is closed first.

    A calibration follows every build and the slowness is taken from
    their median, so one calibration caught by a stall does not scale
    the whole set-up."""
    times, matches, calibrations = [], [], []
    built = None
    for _ in range(repeats):
        if built is not None:
            built.close()
        began = time.perf_counter_ns()
        built = build()
        times.append((time.perf_counter_ns() - began) / 1e9)
        matches.append(built.match_s)
        calibrations.append(calibrate())
    scale = slowness(statistics.median(calibrations))
    return built, statistics.median(times) / scale, statistics.median(matches)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    try:
        # The ceiling keeps git from reading repositories above the checkout.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_context(workload: str, seed: int, seconds: float, transport: str,
                smoke: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "transport": transport,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
