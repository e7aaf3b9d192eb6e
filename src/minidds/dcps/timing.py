"""Per-instance deadline accounting shared by writers and readers."""

from __future__ import annotations

from minidds.qos import INFINITE_NS


class DeadlineTracker:
    """Counts full deadline periods that elapsed with no new sample.

    Misses accumulated before a sample arrives are folded into a running
    count at that arrival, so totals never decrease.
    """

    def __init__(self, period_ns: int):
        self.period_ns = period_ns
        # With no deadline there is nothing to track: callers test this
        # and skip ``record`` on the sample path.
        self.active = period_ns != INFINITE_NS
        self._last: dict[int, int] = {}
        self._accumulated: dict[int, int] = {}

    def record(self, handle: int, now_ns: int) -> None:
        last = self._last.get(handle)
        if last is not None and now_ns > last:
            self._accumulated[handle] = (self._accumulated.get(handle, 0)
                                         + (now_ns - last) // self.period_ns)
        self._last[handle] = now_ns

    def missed(self, now_ns: int) -> list[tuple[int, int]]:
        """(instance_handle, missed_count) for instances with misses."""
        if not self.active:
            return []
        out = []
        for handle, last in sorted(self._last.items()):
            total = self._accumulated.get(handle, 0)
            if now_ns > last:
                total += (now_ns - last) // self.period_ns
            if total > 0:
                out.append((handle, total))
        return out
