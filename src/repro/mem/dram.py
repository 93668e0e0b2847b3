"""DRAM model: bandwidth accounting and utilization-aware latency.

The paper motivates DDIO with memory-bandwidth arithmetic (Sec. II-B:
100 Gb inbound traffic written once and read once costs ~25 GB/s) and
evaluates memory throughput directly (Fig. 8c).  We therefore track read
and write bytes precisely and expose per-window bandwidth.

Latency uses a standard closed-form queueing approximation: the loaded
latency grows superlinearly as utilization approaches the channel limit.
This is enough to reproduce the *relative* latency effects the paper
reports (X-Mem average latency in Figs. 4/10, RocksDB/Redis latencies in
Figs. 13/14) without a full DRAM timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MemorySpec:
    """Capacity-independent parameters of the memory subsystem.

    Defaults approximate the paper's six DDR4-2666 channels (Table I):
    ~128 GB/s peak, ~80 ns idle load-to-use, expressed in core cycles at
    2.3 GHz.
    """

    peak_bytes_per_sec: float = 128e9
    idle_latency_cycles: float = 190.0
    #: Latency multiplier shape: lat = idle * (1 + alpha * util**beta).
    contention_alpha: float = 2.5
    contention_beta: float = 3.0


@dataclass
class MemoryController:
    """Accumulates memory traffic and reports bandwidth/latency.

    The simulation engine calls :meth:`begin_window` each quantum; loads
    and stores land via :meth:`add_read` / :meth:`add_write` (in bytes).
    Only the cumulative byte counts are stored: a window's bytes are
    their change since :meth:`begin_window`.
    """

    spec: MemorySpec = field(default_factory=MemorySpec)
    time_scale: float = 1.0
    read_bytes: int = 0
    write_bytes: int = 0
    #: ``(read_bytes, write_bytes)`` when the current window began.
    _window_base: "tuple[int, int]" = (0, 0)
    _window_seconds: float = 0.0
    _last_util: float = 0.0

    def begin_window(self, seconds: float) -> None:
        """Start a new accounting window of ``seconds`` simulated time."""
        if seconds <= 0:
            raise ValueError("window must have positive duration")
        self._window_base = (self.read_bytes, self.write_bytes)
        self._window_seconds = seconds

    def add_read(self, nbytes: int) -> None:
        self.read_bytes += nbytes

    def add_write(self, nbytes: int) -> None:
        self.write_bytes += nbytes

    # ------------------------------------------------------------------
    @property
    def window_bytes(self) -> int:
        read0, write0 = self._window_base
        return self.read_bytes - read0 + self.write_bytes - write0

    def window_bandwidth(self) -> float:
        """Bytes/second over the current window, unscaled back to real time.

        The simulator runs at ``time_scale`` of real rates (see
        DESIGN.md); dividing by the scale reports real-equivalent
        bandwidth so numbers are comparable to the paper's GB/s.
        """
        if self._window_seconds == 0:
            return 0.0
        return self.window_bytes / self._window_seconds / self.time_scale

    def utilization(self) -> float:
        """Fraction of peak bandwidth consumed in the current window."""
        if self._window_seconds == 0:
            return self._last_util
        util = self.window_bandwidth() / self.spec.peak_bytes_per_sec
        self._last_util = min(util, 0.98)
        return self._last_util

    def load_latency_cycles(self) -> float:
        """Current expected DRAM load latency in core cycles."""
        util = self._last_util
        shape = 1.0 + self.spec.contention_alpha * util ** self.spec.contention_beta
        return self.spec.idle_latency_cycles * shape

    def end_window(self) -> "tuple[int, int]":
        """Close the window; returns ``(read_bytes, write_bytes)`` seen."""
        self.utilization()
        read0, write0 = self._window_base
        return self.read_bytes - read0, self.write_bytes - write0
