"""Host speed during a run, for reporting times in reference-host seconds.

The benchmark's host shares its cores with other machines' work, and its
speed on interpreter-bound code swings by a quarter within tens of
seconds.  Left in, that swing would be most of the spread between two runs
of the same code.  So every iteration process samples a fixed calibration
kernel (a tiny register-machine interpreter, the same kind of work as the
simulator's instruction loop) from a background thread every
``INTERVAL_S``, and reports the mean speed relative to ``REFERENCE_S``.
Times multiplied by that factor are in *reference-host seconds*: what the
run would have taken on a host that runs the kernel in ``REFERENCE_S``.
The kernel is the benchmark's own code, so a change to the program under
test cannot move it.  The iteration process pins itself to one CPU, so the
sampler measures the CPU the simulation runs on.
"""

from __future__ import annotations

import threading
import time
from typing import List

#: kernel duration on the reference host, a round figure near the 2-core
#: host's when the benchmark was defined (a unit, not a target)
REFERENCE_S = 1.0e-3

#: sampling period; one kernel run per period costs about 2 % of the run
INTERVAL_S = 0.05


class _Kernel:
    """A register machine running a fixed nine-instruction loop."""

    def __init__(self):
        self.regs = [0] * 8
        self.mem = {}
        self.pc = 0


def _li(vm, a, b, c):
    vm.regs[a] = b
    return vm.pc + 1


def _add(vm, a, b, c):
    vm.regs[a] = vm.regs[b] + vm.regs[c]
    return vm.pc + 1


def _xor(vm, a, b, c):
    vm.regs[a] = (vm.regs[b] ^ (vm.regs[c] * 31)) & 0xFFFF
    return vm.pc + 1


def _st(vm, a, b, c):
    vm.mem[vm.regs[b] & 1023] = vm.regs[a]
    return vm.pc + 1


def _ld(vm, a, b, c):
    vm.regs[a] = vm.mem.get(vm.regs[b] & 1023, 0)
    return vm.pc + 1


def _blt(vm, a, b, c):
    return c if vm.regs[a] < vm.regs[b] else vm.pc + 1


_PROGRAM = [(_li, 0, 0, 0), (_li, 1, 1, 0), (_li, 2, 600, 0),
            (_xor, 3, 3, 0), (_st, 3, 3, 0), (_ld, 4, 0, 0),
            (_add, 5, 5, 4), (_add, 0, 0, 1), (_blt, 0, 2, 3)]


def kernel_seconds() -> float:
    """Run the calibration kernel once; its duration."""
    start = time.perf_counter()
    vm = _Kernel()
    program = _PROGRAM
    end = len(program)
    while vm.pc < end:
        fn, a, b, c = program[vm.pc]
        vm.pc = fn(vm, a, b, c)
    return time.perf_counter() - start


class HostSpeed:
    """Samples the kernel in a background thread between ``start`` and
    ``stop``.  The kernel runs far inside the interpreter's 5 ms switch
    interval, so a sample never includes time the main thread ran."""

    def __init__(self):
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(kernel_seconds())

    def start(self) -> "HostSpeed":
        self.samples.append(kernel_seconds())
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; the mean speed relative to the reference host
        (above 1 when this host ran faster)."""
        self._stop.set()
        self._thread.join()
        self.samples.append(kernel_seconds())
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
