"""A fixed reference workload that measures how fast the machine is right now.

Host time on a shared machine drifts by tens of percent over minutes, and
the drift is common to every workload.  The benchmark times this loop
between its timed units and divides the program's host time by it, so a
figure measured in a slow minute and one measured in a fast minute
compare.  The loop is a small discrete-event simulation in plain Python
(heap of timestamped events, callbacks, small slotted objects, a
dictionary cache), the same kind of work as the simulator, and it never
imports the program: changing the program cannot move it.  Do not edit
it, or figures normalised before and after the edit stop comparing.
Set-up time, mostly a fresh interpreter importing the program, has its
own reference: :func:`reference_import`.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

#: Scale of the normalised rates: a figure is expressed at the machine
#: speed where one :func:`calibrate` call takes this long (about what it
#: takes on a quiet 2-vCPU Xeon VM with Python 3.11).
REFERENCE_S = 0.015

#: Host seconds :func:`reference_import` takes at the same speed.
REFERENCE_IMPORT_S = 0.1

_REQUESTS = 4000
#: Share of a timed unit's host time spent calibrating after it.
_SHARE = 0.05


class _Event:
    __slots__ = ("when", "callbacks", "value")

    def __init__(self, when: float) -> None:
        self.when = when
        self.callbacks = []
        self.value = None


class _Disk:
    __slots__ = ("busy_until", "position", "served")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.position = 0
        self.served = 0


def _run() -> float:
    heap: list = []
    sequence = 0
    disks = [_Disk() for _ in range(5)]
    mapping: dict = {}
    done = [0.0]
    state = 12345

    def complete(event: _Event) -> None:
        done[0] += event.value

    def arrive(event: _Event) -> None:
        nonlocal sequence
        key = event.value
        runs = mapping.get(key)
        if runs is None:
            runs = tuple((key + unit) % 5 for unit in range(1 + key % 3))
            mapping[key] = runs
            if len(mapping) > 1024:
                del mapping[next(iter(mapping))]
        for index in runs:
            disk = disks[index]
            seek = abs(disk.position - key) * 1e-7 + 0.0005
            start = event.when if event.when > disk.busy_until else disk.busy_until
            disk.busy_until = start + seek
            disk.position = key
            disk.served += 1
            finish = _Event(disk.busy_until)
            finish.value = disk.busy_until - event.when
            finish.callbacks.append(complete)
            sequence += 1
            heapq.heappush(heap, (finish.when, sequence, finish))

    clock = 0.0
    for _ in range(_REQUESTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        clock += (state % 997) * 1e-5
        event = _Event(clock)
        event.value = state % 50_000
        event.callbacks.append(arrive)
        sequence += 1
        heapq.heappush(heap, (clock, sequence, event))
    while heap:
        _when, _seq, event = heapq.heappop(heap)
        for callback in event.callbacks:
            callback(event)
    return done[0]


def calibrate() -> float:
    """Host seconds of one run of the reference loop.

    The loop runs with cyclic GC off, after a collection outside the
    timing: it creates no cycles, and a collection inside would walk
    whatever garbage the timed unit before it left behind.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        _run()
        return time.perf_counter() - started
    finally:
        gc.enable()


def sample(unit_s: float) -> list[float]:
    """Calibrate after a timed unit of ``unit_s`` host seconds.

    Spends about ``_SHARE`` of the unit's time (at least one run), so long
    units, which span more of the drift, weigh more in the run's mean.
    """
    runs = max(1, round(_SHARE * unit_s / REFERENCE_S))
    return [calibrate() for _ in range(runs)]


_STDLIB = (
    "argparse", "asyncio", "concurrent.futures", "decimal", "email.mime.multipart",
    "http.server", "json", "logging.handlers", "pydoc", "sqlite3", "tarfile", "unittest",
    "urllib.request", "xml.dom.minidom",
)


def reference_import() -> float:
    """Host seconds a fresh interpreter takes to import fixed standard-library modules.

    The reference for set-up time, which is mostly a fresh interpreter
    importing the program: process start-up and module execution, whose
    speed the loop above tracks poorly.
    """
    code = (
        "import time; started = time.perf_counter(); "
        f"import {', '.join(_STDLIB)}; print(time.perf_counter() - started)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)
