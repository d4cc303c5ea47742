"""Shared values must stay correct when threads use them at once."""

import decimal
import importlib
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import newtonpoly

THREADS = 4


def race() -> None:
    """Build binomials and q-binomials from THREADS threads at once.

    Nothing is cached: every call builds its value from immutable module
    constants, which the threads share and must leave intact.
    """
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
    # A fresh interpreter, so no earlier test has touched the shared values.
    src = str(Path(newtonpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_decimal_walk_in_threads_keeps_each_thread_context():
    # iterate_pair(7) takes its last step in decimal; every thread gets the
    # same pair and finds its own decimal context as it left it.
    from newtonpoly.newton import iterate_pair

    barrier = threading.Barrier(THREADS)
    results, errors = [None] * THREADS, []

    def work(index):
        try:
            context = decimal.getcontext()
            context.prec = 5 + index
            context.clear_flags()
            barrier.wait()
            pair = iterate_pair(7)
            assert decimal.getcontext() is context and context.prec == 5 + index
            assert not any(context.flags.values()), context.flags
            results[index] = pair
        except Exception as exc:   # surfaced below, after the join
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert all(pair == results[0] for pair in results)
    assert results[0] == iterate_pair(7)


def test_no_module_level_caches():
    # A memoizing cache is mutable state shared by every thread; none may exist.
    cached = []
    for info in pkgutil.walk_packages(newtonpoly.__path__, "newtonpoly."):
        module = importlib.import_module(info.name)
        cached += [f"{info.name}.{name}" for name, value in vars(module).items()
                   if hasattr(value, "cache_info")]
    assert not cached, cached


if __name__ == "__main__":
    race()
