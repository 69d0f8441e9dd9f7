"""The three workloads: the operations each round runs and how inputs are made.

An operation is one CLI command (`gen`, `solve` or `simulate`) with its
files.  A workload's plan lists the operations of one round; every round
of a run repeats the same list, so each run attempts whole rounds and
the share of failed operations is the same whatever the run length.

Nothing here imports rampsched: planted instances are written straight
to the instance file format, with every number a float's repr.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from check import isqrt_bounds

POLICIES = ("fifo", "edd", "srpt", "lssf", "thrashing")

# random-128: gen random -> solve for each instance, and all five
# policies on the first RANDOM_SIMULATED of them.  How many lrtb attempts
# a draw needs varies by seed, so several instances average that out.
RANDOM_N = 150
RANDOM_INSTANCES = 6
RANDOM_SIMULATED = 1

# planted-53: instances built here with a witness planted in private slots.
PLANTED_N = 2000
PLANTED_INSTANCES = 2
PLANTED_SLACK = (0.5, 0.9)

# cascade-128: the LSSF cascade and the SRPT starvation family.  The
# seed moves n inside a narrow band so inputs vary but cost barely does.
CASCADE_N = 240
SRPT_N = 240
SEED_BAND = 5

# The LSSF cascade generated and simulated at 53 bits.  Its max stretch
# comes out wrong without an indeterminate flag, so the operation fails
# every time; n is fixed so the failure does not depend on the seed.
FAULT_N = 400
FAULT_BITS = 53

# Tiny instances of each generator family, solved and held against a
# grid oracle's busy time.
TINY = (("random", 4), ("lssf", 3), ("srpt", 4))


@dataclass(frozen=True)
class Op:
    """One CLI command of a round, with file names relative to the work dir."""

    kind: str  # "gen" | "solve" | "simulate"
    bits: int
    instance: str
    out: str = ""
    family: str = ""
    n: int = 0
    seed: int | None = None
    policy: str = ""
    tiny: bool = False
    known_fault: bool = False

    def argv(self):
        prec = ["--precision", str(self.bits)]
        if self.kind == "gen":
            seed = [] if self.seed is None else ["--seed", str(self.seed)]
            return ["gen", self.family, "--n", str(self.n), *seed, *prec, "--out", self.instance]
        if self.kind == "solve":
            return ["solve", self.instance, *prec, "--out", self.out]
        return ["simulate", self.instance, "--policy", self.policy, *prec, "--trace-out", self.out]

    @property
    def label(self):
        return " ".join(self.argv())

    @property
    def outputs(self):
        return (self.instance,) if self.kind == "gen" else (self.out,)


@dataclass
class Plan:
    """A workload's round: its operations and what the checks need to know."""

    bits: int
    ops: list = field(default_factory=list)
    family: dict = field(default_factory=dict)  # instance file -> family
    planted_busy: dict = field(default_factory=dict)  # instance file -> bound


def _pipeline(plan, family, name, bits, n, seed=None, policies=(), tiny=False):
    inst = f"{name}.json"
    plan.family[inst] = family
    plan.ops.append(Op("gen", bits, inst, family=family, n=n, seed=seed))
    plan.ops.append(Op("solve", bits, inst, f"{name}.schedule.json", tiny=tiny))
    for pol in policies:
        plan.ops.append(Op("simulate", bits, inst, f"{name}.{pol}.trace.json", policy=pol))


def _tiny(plan, bits, seed):
    for family, n in TINY:
        _pipeline(plan, family, f"tiny-{family}{n}", bits, n,
                  seed=seed if family == "random" else None, tiny=True)


def plan_random(seed, workdir):
    plan = Plan(128)
    for i in range(RANDOM_INSTANCES):
        pols = POLICIES if i < RANDOM_SIMULATED else ()
        _pipeline(plan, "random", f"random{i}", 128, RANDOM_N, seed=seed * 100 + i, policies=pols)
    _tiny(plan, 128, seed * 100 + 99)
    return plan


def plan_cascade(seed, workdir):
    plan = Plan(128)
    _pipeline(plan, "lssf", "cascade", 128, CASCADE_N + seed % SEED_BAND, policies=("lssf",))
    _pipeline(plan, "srpt", "starve", 128, SRPT_N + (seed // SEED_BAND) % SEED_BAND,
              policies=POLICIES)
    inst = "cascade53.json"
    plan.family[inst] = "lssf"
    plan.ops.append(Op("gen", FAULT_BITS, inst, family="lssf", n=FAULT_N))
    plan.ops.append(Op("simulate", FAULT_BITS, inst, "cascade53.lssf.trace.json",
                       policy="lssf", known_fault=True))
    _tiny(plan, 128, seed * 100 + 99)
    return plan


def plan_planted(seed, workdir):
    plan = Plan(53)
    rng = random.Random(seed)
    for i in range(PLANTED_INSTANCES):
        inst = f"planted{i}.json"
        plan.family[inst] = "planted"
        plan.planted_busy[inst] = write_planted(
            os.path.join(workdir, inst), PLANTED_N, rng, f"planted-{seed}-{i}"
        )
        plan.ops.append(Op("solve", 53, inst, f"planted{i}.schedule.json"))
        for pol in POLICIES:
            plan.ops.append(Op("simulate", 53, inst, f"planted{i}.{pol}.trace.json", policy=pol))
    _tiny(plan, 53, seed * 100 + 99)
    return plan


def write_planted(path, n, rng, name):
    """Write an n-job instance with a planted witness; return its busy time.

    Slots are laid end to end with random gaps.  Each job owns one slot
    and gets a window reaching up to three time units beyond it on each
    side, so windows overlap many other jobs' slots.  Its work is what
    the slot absorbs times a slack factor below 1, so the witness that
    runs each job flush against the right end of its own slot is
    feasible.  The returned busy time is an exact upper bound on that
    witness's, computed from the numbers as written to the file.
    """
    jobs, busy, t = [], Fraction(0), 0.0
    for jid in range(1, n + 1):
        t += rng.uniform(0.0, 0.5)
        a, b = t, t + rng.uniform(0.5, 2.0)
        t = b
        r, d = a - rng.uniform(0.0, 3.0), b + rng.uniform(0.0, 3.0)
        slope = rng.choice((0.5, 1.0, 2.0))
        slack = rng.uniform(*PLANTED_SLACK)
        work = slack * slope * ((b - r) ** 2 - (a - r) ** 2) / 2
        jobs.append({"id": jid, "release": repr(r), "due": repr(d), "work": repr(work),
                     "base": "0.0", "slope": repr(slope)})
        # Flush right in [a, b]: run time t_j = (b-r) - sqrt((b-r)^2 - 2w/m).
        span = Fraction(b) - Fraction(r)
        lo, _ = isqrt_bounds(span ** 2 - 2 * Fraction(work) / Fraction(slope))
        busy += span - lo
    record = {"schema_version": 1, "kind": "instance", "name": name,
              "provenance": "perfbench planted witness", "precision_bits": 53, "jobs": jobs}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return busy


PLANS = {
    "random-128": plan_random,
    "planted-53": plan_planted,
    "cascade-128": plan_cascade,
}
