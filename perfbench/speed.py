"""Host speed probe: a fixed piece of pure-Python work, timed between operations.

On a shared host the speed of the same code drifts: on a 2-vCPU KVM guest
("Intel Xeon Processor") a fixed ``gates.cnot`` loop ran between 265 and 495
calls/s, in stretches of 1 to 60 s, with CPU time equal to wall time, so the
cores themselves run slower (other tenants share them) rather than the
process waiting.  Timed alone, the same program then reads up to 40% slower
from one run to the next.  Code of the same kind slows together: timed in
turns of 0.1 s, the program's rate divided by the probe's rate spread
0.04 (IQR / median over 10 s windows) where the program's rate alone spread
0.19.

So the benchmark times ``probe()`` at least every ``PROBE_EVERY_S`` of a run
and multiplies the wall time of each operation between two probes by
``PROBE_REF_S / mean(those two probes)``: every time is reported as it would
read on a machine where the probe takes ``PROBE_REF_S``.  A run also lasts
its ``--seconds`` in that reference time, so a run on a slow stretch does
not meet fewer circuits of a stream than one on a fast stretch.  The probe does not
call the program, so a change to the program cannot change it; a program
that gets faster reads faster by the same factor.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter_ns

#: What the probe takes, in seconds, on the machine all times are scaled to.
#: It is about the probe's median on the 2-vCPU host described above, where
#: the median of one run ranged from 5.5 to 10.4 ms.
PROBE_REF_S = 0.0095

#: Longest stretch of operations between two probes, in seconds.
PROBE_EVERY_S = 0.1

#: Rounds of work in one probe.
_ROUNDS = 36


def _work() -> int:
    # Sparse amplitudes keyed by sorted occupation tuples, the same kind of
    # dict, tuple and complex arithmetic the Fock-space engine does.
    kept = 0
    for r in range(_ROUNDS):
        state = {((r % 3, 1),): 1 + 0j}
        for step in range(6):
            nxt: dict[tuple, complex] = {}
            for key, amp in state.items():
                occ = dict(key)
                for target, coeff in ((step % 4, 0.6 + 0j), ((step + r) % 5, 0.8j)):
                    k = occ.get(target, 0)
                    occ2 = dict(occ)
                    occ2[target] = k + 1
                    new = tuple(sorted(occ2.items()))
                    nxt[new] = nxt.get(new, 0j) + amp * coeff * math.sqrt(k + 1)
            state = {key: amp for key, amp in nxt.items() if abs(amp) > 1e-12}
        kept += len(state)
    return kept


def probe() -> float:
    """Seconds the fixed work takes now, with the garbage collector held off.

    The collector is held off so that garbage the program left behind does
    not land a collection inside the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        _work()
        return (perf_counter_ns() - start) * 1e-9
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Time at the reference speed, advanced one slice of a run at a time.

    A slice runs from one probe to the next.  ``close_slice()`` times a
    probe and adds the slice's wall time, scaled by the probes on either
    side of it, to ``elapsed``.
    """

    def __init__(self):
        self.probes = [probe()]
        self.elapsed = 0.0
        self._start = perf_counter_ns()

    @property
    def slice(self) -> int:
        """Index of the slice now running."""
        return len(self.probes) - 1

    def due(self) -> bool:
        return (perf_counter_ns() - self._start) * 1e-9 >= PROBE_EVERY_S

    def close_slice(self) -> None:
        wall = (perf_counter_ns() - self._start) * 1e-9
        self.probes.append(probe())
        self.elapsed += wall * self.scale(self.slice - 1)
        self._start = perf_counter_ns()

    def scale(self, i: int) -> float:
        """Factor from wall time in closed slice ``i`` to reference time."""
        return 2 * PROBE_REF_S / (self.probes[i] + self.probes[i + 1])
