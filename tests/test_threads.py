"""Shared values and caches must stay correct when threads race to fill them."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import newtonpoly

THREADS = 4


def race() -> None:
    """Fill the binomial and q-binomial caches from THREADS threads at once."""
    from newtonpoly.closedform import binomial
    from newtonpoly.qalgebra import qbinomial

    barrier = threading.Barrier(THREADS)
    errors = []

    def work():
        try:
            barrier.wait()
            binomial(600, 3)
            qbinomial(40, 3)
        except Exception as exc:   # surfaced below, after the join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for n in range(1, 601):
        assert binomial(n, 1) == n, n
    for n in range(1, 41):
        assert qbinomial(n, 1).evaluate({"q": 1}) == n, n


def test_concurrent_cache_fill():
    # A fresh interpreter, so the caches start empty and the race is real.
    src = str(Path(newtonpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr


if __name__ == "__main__":
    race()
