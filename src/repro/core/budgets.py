"""OOM / OOT simulation.

The paper reports cells as OOM when an algorithm exceeds 504 GB and
OOT past 24 h (C++, 64 threads). At our scale the analogous failure
modes are (i) materializing too many k-cliques (GC, OPT) and (ii)
unbounded exact search (OPT's MIS). ``Budget`` lets harnesses cap
both and report the same OOM/OOT cells the paper does instead of
actually exhausting the sandbox.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field


class SimulatedOOM(RuntimeError):
    """Raised when a run would materialize more objects than its budget."""


class SimulatedOOT(RuntimeError):
    """Raised when a run exceeds its wall-clock budget."""

# Marker strings used to recover budget failures from Py4J-wrapped
# executor exceptions (a Python exception inside mapInPandas surfaces
# as a generic Spark task failure on the driver).
OOM_MARKER = "REPRO_SIMULATED_OOM"
OOT_MARKER = "REPRO_SIMULATED_OOT"


@dataclass
class Budget:
    """Cap on materialized cliques and wall-clock time.

    ``max_cliques`` guards memory-style blow-ups (count of k-cliques an
    algorithm must hold at once); ``max_seconds`` guards time-style
    blow-ups. ``started`` is stamped at construction.
    """

    max_cliques: int | None = None
    max_seconds: float | None = None
    started: float = field(default_factory=time.monotonic)

    def check_count(self, count: int) -> None:
        if self.max_cliques is not None and count > self.max_cliques:
            raise SimulatedOOM(
                f"{OOM_MARKER}: {count} cliques exceeds budget {self.max_cliques}"
            )

    def check_time(self) -> None:
        if self.max_seconds is not None and time.monotonic() - self.started > self.max_seconds:
            raise SimulatedOOT(
                f"{OOT_MARKER}: exceeded {self.max_seconds}s budget"
            )

    @property
    def epoch_deadline(self) -> float | None:
        """Wall-clock (``time.time``) deadline, or None. Kernels in
        executor processes compare against wall time, because monotonic
        clocks are per-process."""
        if self.max_seconds is None:
            return None
        elapsed = time.monotonic() - self.started
        return time.time() + max(0.0, self.max_seconds - elapsed)


def translate_spark_error(exc: Exception) -> Exception:
    """Map a Py4J-wrapped executor failure back to the typed budget
    exception if one of our markers is in the message."""
    msg = str(exc)
    if OOM_MARKER in msg:
        return SimulatedOOM(f"{OOM_MARKER} (from executor)")
    if OOT_MARKER in msg:
        return SimulatedOOT(f"{OOT_MARKER} (from executor)")
    return exc
