"""Machine-speed calibration for the benchmark's timings.

The host this benchmark runs on is shared, and how fast it runs Python
changes by up to a factor of two within a minute.  Each pass therefore times
the fixed kernels below just before and just after its operations, and the
parent scales every time the pass reports by the kernels' time (see
``run.py``).  The kernels are written here and share no code with
newtonpoly, so a change to the program does not move them.  Their data stay
small, so they do not show in the peak memory figure.
"""

from __future__ import annotations

import json
import random
import time

_RNG = random.Random(0)
SPARSE_OPERAND = {(_RNG.randrange(10), _RNG.randrange(10), _RNG.randrange(10)):
                  _RNG.getrandbits(160) for _ in range(400)}
BIG_NUMBERS = [_RNG.getrandbits(400) for _ in range(3000)]


def _interpreter_kernel() -> None:
    """Bytecode-bound updates of a small dict."""
    table: dict = {}
    for i in range(150_000):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i


def _squaring_kernel() -> None:
    """A sparse squaring with 160-bit products, like the program's multiply."""
    out: dict = {}
    for (a1, b1, c1), u in SPARSE_OPERAND.items():
        for (a2, b2, c2), v in SPARSE_OPERAND.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + u * v


def _bigint_kernel() -> None:
    """Big-integer remainders, decimal strings and JSON, like certification."""
    for _ in range(3):
        json.dumps([{"c": str(v), "r": v % 65521, "h": v >> 200} for v in BIG_NUMBERS],
                   indent=2)


def calibrate() -> float:
    """Seconds the three kernels take together, right now."""
    start = time.perf_counter()
    _interpreter_kernel()
    _squaring_kernel()
    _bigint_kernel()
    return time.perf_counter() - start
