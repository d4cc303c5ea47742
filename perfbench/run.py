"""Benchmark of newtonpoly: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload recurrence --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the root of a source checkout; newtonpoly is imported from its
``src`` directory, never from an installed copy.  Each pass of a workload is
one fresh interpreter (``child.py``), run one at a time in a closed loop, so
the program's module-level caches start cold as they do for a CLI user.
Passes are started until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the run's passes (``setup_s`` also pools a few import-only
probes).  Times are scaled to a reference machine speed measured by
calibration kernels in the same process (see ``calibration.py``); the raw
wall times and the measured slowdown are printed alongside.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: medians over the traced passes, plus ``trace.run_s`` and
``trace.overhead_s`` (traced minus untraced median ``run_s``).  Spans of the
last traced pass are written to ``.perfbench-out/spans-<workload>.json``.

Every output is checked (see ``checks.py``); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().with_name("child.py")
OUT_DIR = ROOT / ".perfbench-out"

IMPORT_PROBES = 6          # extra import-only interpreters per untraced run
RUN_LIMIT_S = 170          # a run must end within this, whatever --seconds says

# Seconds the calibration kernels (calibration.calibrate) take on the 2-vCPU
# x86-64 VM with CPython 3.11 where the baseline was measured, when nothing
# else loads its host.  Every time a pass reports is scaled by
# CALIBRATION_REF_S / (that pass's own calibration time), so the figures read
# as seconds on that machine at that speed, whatever shares the host meanwhile.
CALIBRATION_REF_S = 0.18


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _probe() -> dict:
    done = subprocess.run([sys.executable, str(CHILD), "--probe"], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _pass(plan: dict, traced: bool, timeout: float) -> dict:
    request = {"plan": plan, "src": str(SRC), "trace": traced,
               "spans_path": str(OUT_DIR / f"spans-{plan['workload']}.json")}
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, str(CHILD)], input=json.dumps(request),
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
        if done.returncode != 0:
            raise RuntimeError(f"pass exited {done.returncode}: {done.stderr.strip()[-500:]}")
        result = json.loads(done.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        n_ops = len(plan["ops"])
        result = {"attempted": n_ops, "failed": n_ops,
                  "failures": [{"op": "pass", "problem": f"{type(exc).__name__}: {exc}"}]}
    result["traced"] = traced
    result["wall_s"] = time.perf_counter() - started
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """All passes (and probe samples) of one run of one workload."""
    plan = workloads.plan(name, seed)
    started = time.perf_counter()
    _probe()                                   # untimed: compiles bytecode, warms the file cache
    probes = [] if trace else [dict(_probe(), probe=True) for _ in range(IMPORT_PROBES)]
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - started
        same_mode = [p["wall_s"] for p in passes if p["traced"] == traced]
        enough = len(passes) >= (2 if trace else 1)
        if enough and (not same_mode or elapsed + same_mode[-1] > seconds):
            break
        passes.append(_pass(plan, traced, timeout=RUN_LIMIT_S - elapsed))
    return probes + passes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _scaled(sample: dict, seconds: float) -> float:
    return seconds * CALIBRATION_REF_S / sample["calibration_s"]


def summarize(name: str, samples: list[dict], trace: bool, spec: dict) -> dict:
    """Metrics of one workload run, keyed by the names in BENCHMARK.json."""
    passes = [s for s in samples if not s.get("probe")]
    ok = [p for p in passes if "run_s" in p]
    untraced = [_scaled(p, p["run_s"]) for p in ok if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {name} {failure['op']}: {failure['problem']}", file=sys.stderr)

    if trace:
        traced = [p for p in ok if p["traced"]]
        values = {}
        for key, unit in spec["per_layer"].items():
            found = [_scaled(p, p["layers"][key]) if unit == "s" else p["layers"][key]
                     for p in traced if key in p["layers"]]
            if found:
                values[key] = _median(found)
        values["trace.run_s"] = _median([_scaled(p, p["run_s"]) for p in traced])
        values["trace.overhead_s"] = values["trace.run_s"] - _median(untraced)
        counts = f"{len(traced)} traced and {len(untraced)} untraced passes"
        sieves = _median([p["layers"]["smoothness.sieve_primes.calls"] for p in traced])
        limits = _median([p["layers"]["smoothness.sieve_distinct_limits"] for p in traced])
        bases = {"smoothness.sieve_useful_ratio": f"{limits:g} distinct limits / "
                                                  f"{sieves:g} sieve calls"}
    else:
        setups = [_scaled(s, s["setup_s"]) for s in samples if "setup_s" in s]
        values = {"run_s": _median(untraced), "setup_s": _median(setups),
                  "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok])}
        counts = f"{len(untraced)} passes, {len(setups)} imports"
        bases = {"setup_s": f"median of {len(setups)} imports",
                 "run_s": f"median of {len(untraced)} passes",
                 "peak_rss_mb": f"median of {len(ok)} passes"}

    entries = spec["per_layer" if trace else "end_to_end"]
    missing = [key for key in entries if key not in values]
    if missing:
        raise SystemExit(f"metrics not measured on {name}: {missing}")
    print(f"== {name}: {counts}; fail_ratio {failed}/{attempted} "
          f"= {failed / max(attempted, 1):g} (failed / attempted operations)")
    print("   per-pass wall run_s (s): " + " ".join(f"{p['run_s']:.3f}" for p in ok))
    print("   per-pass machine slowdown: " + " ".join(
        f"{p['calibration_s'] / CALIBRATION_REF_S:.3f}" for p in ok))
    for key, unit in entries.items():
        note = f"  ({bases[key]})" if key in bases else ""
        print(f"   {key:40s} {values[key]:>16.6g} {unit}{note}")
    return {"correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in entries.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "newtonpoly" / "__init__.py").is_file():
        print(f"no newtonpoly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {section: {m["name"]: m["unit"] for m in config[section]}
            for section in ("end_to_end", "per_layer")}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: summarize(name, run_workload(name, args.seed, args.seconds,
                                                  bool(args.trace)), bool(args.trace), spec)
               for name in names}
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": value for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
