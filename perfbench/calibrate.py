"""Host-speed calibration: a fixed kernel timed between ops.

On a shared host the machine switches between speeds that differ by 1.5x
or more, from one second to the next and over minutes, and process CPU
time changes with it.  Raw op times then spread more from run to run than
any change worth catching.
The worker therefore times this kernel after the warm-up op and after every
timed op, outside the op clocks (:class:`OpClock`).  An op of several
parts also calls ``pause()`` between them, which runs one more pass.  Each
part's wall and CPU time is scaled by ``REF_S`` over the mean of the two
passes around it: wall by wall, CPU by CPU.  A host running at half speed
doubles both, and the ratio cancels it; a change to xvaband moves only the
op time.

The kernel does what the workloads do, on arrays of their size, and calls
nothing in xvaband, so it is the same program on every commit: banded
tridiagonal solves of the 801-point lattice, elementwise numpy work on it
and on a 2001-node tree level, and a plain Python loop.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

#: Kernel time on a calm 2-vCPU Intel Xeon KVM guest (numpy 2.4,
#: OpenBLAS).  Scaled times are in seconds of that host; the constant only
#: sets the scale, since both commits of a comparison use the same one.
REF_S = 0.030
PIECES = 12
_N_X = 801
_N_TREE = 2001

_rng = np.random.default_rng(12345)
_ab = np.vstack([np.full(_N_X, -0.3), np.full(_N_X, 2.0), np.full(_N_X, -0.3)])
_rhs = _rng.random(_N_X)
_level = _rng.random(_N_TREE)


def _piece() -> float:
    u = _rhs
    for _ in range(40):
        u = solve_banded((1, 1), _ab, u, check_finite=False)
        u = np.maximum(u, 0.0) * 0.5 + _rhs
    v = _level
    for _ in range(40):
        v = 0.5 * (v[1:] + v[:-1]) * 0.999 + np.maximum(v[1:] - 0.5, 0.0) * 1e-3
    s = 0
    for i in range(6000):
        s += i * i
    return float(u[0] + v[0]) + s * 0.0


def calibrate() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one pass of the kernel."""
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(PIECES):
        _piece()
    return time.perf_counter() - t0, time.process_time() - c0


class OpClock:
    """Wall and CPU clocks of one op, scaled part by part.

    ``before`` is the kernel pass just before the op, or None for an op
    that is not scaled (the warm-up), whose ``pause()`` does nothing.
    """

    def __init__(self, before: tuple[float, float] | None):
        self.passes = [] if before is None else [before]
        self.parts: list[tuple[float, float]] = []
        self._start()

    def _start(self) -> None:
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _stop(self) -> None:
        self.parts.append((time.perf_counter() - self._wall,
                           time.process_time() - self._cpu))

    def pause(self) -> None:
        """Between two parts of the op: one kernel pass, off the clocks."""
        if self.passes:
            self._stop()
            self.passes.append(calibrate())
            self._start()

    def stop(self) -> None:
        self._stop()
        if self.passes:
            self.passes.append(calibrate())

    def times(self) -> dict:
        """Unscaled and scaled wall and CPU seconds of the op."""
        out = {"wall": sum(w for w, _ in self.parts),
               "cpu": sum(c for _, c in self.parts)}
        if self.passes:
            around = zip(self.parts, self.passes, self.passes[1:])
            scaled = [(w * REF_S / ((a[0] + b[0]) / 2), c * REF_S / ((a[1] + b[1]) / 2))
                      for (w, c), a, b in around]
            out["scaled_wall"] = sum(w for w, _ in scaled)
            out["scaled_cpu"] = sum(c for _, c in scaled)
        return out
