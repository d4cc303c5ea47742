"""One pass of a workload, in a fresh interpreter.

Reads a request (JSON) on stdin: the plan, the source directory to import
newtonpoly from, and whether to trace.  Times the import of newtonpoly and
its CLI (``setup_s``), runs every operation of the plan (``run_s``, from the
first program call to the end of the last), reads its own peak resident
memory, then checks every output.  The calibration kernels run just before
and just after the operations (``calibration_s``, their mean).  Prints one
JSON result line on stdout; times are raw, and the parent scales them.

With ``--probe`` it only times the import and the calibration kernels.
"""

import sys
import time

_t0 = time.perf_counter()
import newtonpoly  # noqa: E402
import newtonpoly.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from calibration import calibrate  # noqa: E402


def _imported_from(src: str) -> bool:
    return Path(newtonpoly.__file__).resolve().is_relative_to(Path(src).resolve())


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = newtonpoly.cli.main(argv)
    except SystemExit as exc:                 # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_op(op: dict, state: dict) -> dict:
    np_, cli = newtonpoly, newtonpoly.cli
    kind = op["kind"]
    if kind == "cli":
        return _run_cli(op["argv"])
    if kind == "pair":
        n = op["n"]
        state["pair"] = np_.NewtonPair(n, np_.closed_p(n), np_.closed_q(n))
        return {"exit": 0, "stdout": cli.canonical_json(state["pair"].to_dict())}
    if kind == "smoothness":
        report = np_.certify_pair(state["pair"])
        return {"exit": 0, "stdout": cli.canonical_json(report.to_dict())}
    if kind == "coprimality":
        report = np_.coprimality_check(state["pair"], trials=op["trials"], seed=op["seed"])
        return {"exit": 0, "stdout": cli.canonical_json(report.to_dict())}
    raise ValueError(f"unknown operation kind {kind!r}")


def run_pass(request: dict) -> dict:
    if not _imported_from(request["src"]):
        raise SystemExit(f"newtonpoly was imported from {newtonpoly.__file__}, "
                         f"not from {request['src']}")
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = request["plan"]["ops"]
    outputs, state = [], {}
    before = calibrate()
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(_run_op(op, state))
        except Exception as exc:              # an operation failed; the pass goes on
            outputs.append({"exit": None, "error": f"{type(exc).__name__}: {exc}"})
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration_s = (before + calibrate()) / 2
    state.clear()

    failures = []
    output_bytes = 0
    pins = checks.load_pins()
    for op, output in zip(ops, outputs):
        output_bytes += len(output.get("stdout", ""))
        problem = checks.check(op, output, pins)
        if problem:
            failures.append({"op": op["id"], "problem": problem})

    result = {"setup_s": SETUP_S, "run_s": run_s, "calibration_s": calibration_s,
              "peak_rss_mb": peak_rss_mb,
              "attempted": len(ops), "failed": len(failures), "failures": failures}
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = output_bytes
        result["layers"] = layers
        tracer.dump(Path(request["spans_path"]))
    return result


def main() -> None:
    if "--probe" in sys.argv[1:]:
        print(json.dumps({"setup_s": SETUP_S, "calibration_s": calibrate()}))
        return
    print(json.dumps(run_pass(json.loads(sys.stdin.read()))))


if __name__ == "__main__":
    main()
