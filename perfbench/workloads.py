"""Seeded inputs for the three workloads.

A plan is plain JSON: the list of operations one pass runs, each with the
exact arguments the program receives and the check its output must pass.
Every pass of a run gets the same plan; the same seed gives the same plan.
Draws that would make an operation fail by design (a = 0, a zero
discriminant, a Newton pole) are redrawn here, so every operation is expected
to pass.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import newton_orbit, usable_quadratic

WORKLOADS = ("recurrence", "certify", "small-ops")

# The coefficient triples the CLI's conjugacy suite iterates over; conjugacy
# samples are drawn so that none of them meets a pole for any of these.
CONJUGACY_TRIPLES = ((1, 0, -1), (1, -3, 2), (2, 1, -3), (1, 0, 1), (3, -2, -1))

RECURRENCE_MAX_N = 6
RECURRENCE_EVALS = 3
RECURRENCE_EVAL_N = 6

CERTIFY_N = 7
CERTIFY_TRIALS = 2

SMALL_CONJUGACY_MAX_N = 4
SMALL_CONJUGACY_SETS = 3
SMALL_CONJUGACY_SAMPLES = 12
SMALL_COPRIME_SEEDS = 3
SMALL_COPRIME_MAX_N = 3
SMALL_COPRIME_TRIALS = 10
SMALL_ROOTFORMS = 12
SMALL_ROOTFORM_N = 8
SMALL_EVALS = 48
SMALL_EVAL_N = 4


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _eval_point(rng: random.Random, n: int) -> dict:
    while True:
        a, b, c, x = (_rational(rng) for _ in range(4))
        if usable_quadratic(a, b, c) and newton_orbit(a, b, c, x, n) is not None:
            return {"a": str(a), "b": str(b), "c": str(c), "x": str(x)}


def _rootform_input(rng: random.Random, n: int) -> dict:
    while True:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        x = _rational(rng)
        if usable_quadratic(a, b, c) and newton_orbit(a, b, c, x, n) is not None:
            return {"a": a, "b": b, "c": c, "x": str(x)}


def _conjugacy_samples(rng: random.Random, count: int, max_n: int) -> list[str]:
    samples: list[Fraction] = []
    while len(samples) < count:
        z = _rational(rng)
        if z in samples:
            continue
        if all(a * z * z + b * z + c != 0 and newton_orbit(a, b, c, z, max_n) is not None
               for a, b, c in CONJUGACY_TRIPLES):
            samples.append(z)
    return [str(z) for z in samples]


def _seed_value(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _cli(op_id: str, argv: list[str], check: dict) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "check": check}


def _eval_op(op_id: str, n: int, point: dict) -> dict:
    argv = ["eval", f"--n={n}"] + [f"--{k}={point[k]}" for k in ("a", "b", "c", "x")]
    return _cli(op_id, argv, {"type": "eval", "n": n, **point})


def plan(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "recurrence":
        # --rootform-max-n=-1 leaves out the suite's root-form comparison, so the
        # quadfield layer is exercised by small-ops alone.
        ops = [_cli("equivalence", ["verify", "equivalence", f"--max-n={RECURRENCE_MAX_N}",
                                    "--rootform-max-n=-1"],
                    {"type": "report", "pin": "recurrence/equivalence"})]
        ops += [_eval_op(f"eval-{i}", RECURRENCE_EVAL_N, _eval_point(rng, RECURRENCE_EVAL_N))
                for i in range(RECURRENCE_EVALS)]
    elif workload == "certify":
        trial_seed = _seed_value(rng)
        ops = [
            {"id": "pair", "kind": "pair", "n": CERTIFY_N,
             "check": {"type": "pin", "pin": "certify/pair"}},
            {"id": "smoothness", "kind": "smoothness",
             "check": {"type": "smoothness", "pin": "certify/smoothness"}},
            {"id": "coprimality", "kind": "coprimality",
             "trials": CERTIFY_TRIALS, "seed": trial_seed,
             "check": {"type": "coprimality", "n": CERTIFY_N,
                       "trials": CERTIFY_TRIALS, "seed": trial_seed}},
        ]
    elif workload == "small-ops":
        ops = [
            _cli("qconjecture", ["verify", "qconjecture", "--max-n=4"],
                 {"type": "report", "pin": "small-ops/qconjecture"}),
            _cli("lemma1", ["verify", "lemma1", "--max-n=64"],
                 {"type": "report", "pin": "small-ops/lemma1"}),
            _cli("qbinom", ["verify", "qbinom"], {"type": "report", "pin": "small-ops/qbinom"}),
        ]
        for i in range(SMALL_COPRIME_SEEDS):
            coprime_seed = _seed_value(rng)
            ops.append(_cli(
                f"coprime-{i}",
                ["verify", "coprime", f"--max-n={SMALL_COPRIME_MAX_N}",
                 f"--trials={SMALL_COPRIME_TRIALS}", f"--seed={coprime_seed}"],
                {"type": "coprime", "max_n": SMALL_COPRIME_MAX_N,
                 "trials": SMALL_COPRIME_TRIALS, "seed": coprime_seed}))
        for i in range(SMALL_CONJUGACY_SETS):
            samples = _conjugacy_samples(rng, SMALL_CONJUGACY_SAMPLES, SMALL_CONJUGACY_MAX_N)
            ops.append(_cli(
                f"conjugacy-{i}",
                ["verify", "conjugacy", f"--max-n={SMALL_CONJUGACY_MAX_N}",
                 "--samples=" + ",".join(samples)],
                {"type": "conjugacy", "max_n": SMALL_CONJUGACY_MAX_N, "samples": samples}))
        for i in range(SMALL_ROOTFORMS):
            point = _rootform_input(rng, SMALL_ROOTFORM_N)
            argv = ["generate", "--method=rootform", f"--n={SMALL_ROOTFORM_N}",
                    f"--a={point['a']}", f"--b={point['b']}", f"--c={point['c']}"]
            ops.append(_cli(f"rootform-{i}", argv,
                            {"type": "rootform", "n": SMALL_ROOTFORM_N, **point}))
        ops += [_eval_op(f"eval-{i}", SMALL_EVAL_N, _eval_point(rng, SMALL_EVAL_N))
                for i in range(SMALL_EVALS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"workload": workload, "seed": seed, "ops": ops}

