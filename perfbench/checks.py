"""Output checks the program cannot grade itself.

Each check returns None when the output is right and a one-line problem
otherwise.  Verdicts and exit codes are read from the output, values are
recomputed with the benchmark's own arithmetic (``reference``), and outputs
that do not depend on the seed are compared with sha256 hashes pinned in
``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from reference import coprime_witness_holds, eval_univariate, newton_orbit
from workloads import CONJUGACY_TRIPLES

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pin(name: str, text: str, pins: dict[str, str]) -> str | None:
    digest = sha256(text)
    if name not in pins:
        return f"no pinned hash for {name} (output sha256 {digest})"
    if pins[name] != digest:
        return f"{name}: sha256 {digest} differs from the pinned {pins[name]}"
    return None


def _newton(spec: dict, z, n: int) -> Fraction:
    return newton_orbit(Fraction(spec["a"]), Fraction(spec["b"]), Fraction(spec["c"]), z, n)


def _check_eval(spec: dict, text: str) -> str | None:
    expected = _newton(spec, Fraction(spec["x"]), spec["n"])
    got = Fraction(text.strip())
    return None if got == expected else f"eval printed {got}, stepwise Newton gives {expected}"


def _check_rootform(spec: dict, data: dict) -> str | None:
    coeffs = {k: str(spec[k]) for k in ("a", "b", "c")}
    if data["n"] != spec["n"] or data["coeffs"] != coeffs:
        return f"rootform echoed n={data['n']} coeffs={data['coeffs']}"
    x = Fraction(spec["x"])
    denominator = eval_univariate(data["q"], x)
    if denominator == 0:
        return f"Q_n vanishes at x = {x}"
    got = eval_univariate(data["p"], x) / denominator
    expected = _newton(spec, x, spec["n"])
    return None if got == expected else f"P/Q at {x} is {got}, stepwise Newton gives {expected}"


def _check_witnesses(report: dict, n: int, trials: int, seed: int) -> str | None:
    if report["verdict"] != "pass" or report["n"] != n:
        return f"coprimality report n={report['n']} verdict {report['verdict']}"
    if report["seed"] != seed or len(report["witnesses"]) != trials:
        return f"n={n}: seed {report['seed']} with {len(report['witnesses'])} witnesses"
    for w in report["witnesses"]:
        if w["gcd_degree"] != 0 or not coprime_witness_holds(w["a"], w["b"], w["c"], n):
            return f"n={n}: witness {w} not confirmed coprime mod p"
    return None


def _check_coprime_suite(spec: dict, data: dict, pins: dict[str, str]) -> str | None:
    reports = data["reports"]
    if [r["n"] for r in reports] != list(range(spec["max_n"] + 1)):
        return f"coprime suite covered n = {[r['n'] for r in reports]}"
    for r in reports:
        problem = _check_witnesses(r, r["n"], spec["trials"], spec["seed"])
        if problem:
            return problem
        if r["resultant_nonzero"] is not True:
            return f"n={r['n']}: exact resultant not reported nonzero"
    resultants = json.dumps([r["resultant"] for r in reports], sort_keys=True)
    return _pin("small-ops/coprime-resultants", resultants, pins)


def _check_conjugacy(spec: dict, data: dict) -> str | None:
    samples = [Fraction(z) for z in spec["samples"]]
    expected_keys = [(t, n) for t in CONJUGACY_TRIPLES for n in range(1, spec["max_n"] + 1)]
    results = data["results"]
    if len(results) != len(expected_keys):
        return f"conjugacy suite has {len(results)} results, expected {len(expected_keys)}"
    for (triple, n), result in zip(expected_keys, results):
        report = result["report"]
        coeffs = report["coeffs"]
        if (coeffs["a"], coeffs["b"], coeffs["c"]) != triple or report["n"] != n:
            return f"conjugacy result for {coeffs} n={report['n']}, expected {triple} n={n}"
        if report["verdict"] != "pass" or report["checked"] != len(samples):
            return f"{triple} n={n}: verdict {report['verdict']}, {report['checked']} checked"
        for z, trace in zip(samples, report["traces"]):
            expected = newton_orbit(*triple, z, n)
            if trace["status"] != "ok" or trace["match"] is not True or \
                    Fraction(trace["newton_value"]) != expected:
                return f"{triple} n={n} z={z}: trace {trace['status']}, expected {expected}"
    return None


def check(op: dict, output: dict, pins: dict[str, str]) -> str | None:
    """None if the operation's output passes its check, else the problem."""
    if output.get("exit") != 0:
        detail = output.get("error") or output.get("stderr", "").strip()[-300:]
        return f"exit code {output.get('exit')}: {detail}"
    spec, text = op["check"], output["stdout"]
    kind = spec["type"]
    try:
        if kind == "pin":
            return _pin(spec["pin"], text, pins)
        if kind == "eval":
            return _check_eval(spec, text)
        data = json.loads(text)
        if kind == "rootform":
            return _check_rootform(spec, data)
        if kind == "coprimality":
            return _check_witnesses(data, spec["n"], spec["trials"], spec["seed"])
        if kind == "smoothness":
            if data["summary"]["all_smooth"] is not True:
                return "smoothness summary says all_smooth is not true"
            return _pin(spec["pin"], text, pins)
        if data.get("passed") is not True:
            return "report says passed is not true"
        if kind == "report":
            return _pin(spec["pin"], text, pins)
        if kind == "coprime":
            return _check_coprime_suite(spec, data, pins)
        if kind == "conjugacy":
            return _check_conjugacy(spec, data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"unknown check type {kind!r}"
