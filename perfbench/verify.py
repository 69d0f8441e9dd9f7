"""Check every output of one round against its inputs.

The same checks serve the CLI rounds and the in-process traced rounds:
both leave the same files in a work directory, plus each operation's
exit code.
"""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict

import check
from check import CheckError


def verify_round(plan, codes, workdir, oracle=None):
    """Return {op index: message} for the operations whose outputs are wrong.

    `codes` holds each operation's exit code.  `oracle` optionally maps
    an instance file to rampsched's own grid-oracle busy time, which the
    solved busy time must not exceed either.
    """
    failures = {}
    instances = {}
    solved = {}  # instance file -> (op index, busy time)
    traces = defaultdict(list)

    def inst(name):
        if name not in instances:
            instances[name] = check.load_instance(os.path.join(workdir, name))
        return instances[name]

    for i, (op, code) in enumerate(zip(plan.ops, codes)):
        try:
            if op.known_fault and code == 2:
                continue  # reported itself indeterminate: honest, so it passes
            if code != 0:
                raise CheckError(f"exit code {code}")
            if op.kind == "gen":
                got = inst(op.instance)
                if len(got.jobs) != op.n or got.bits != op.bits:
                    raise CheckError(f"{op.instance}: {len(got.jobs)} jobs at {got.bits} bits")
            elif op.kind == "solve":
                busy = check.check_schedule(inst(op.instance), os.path.join(workdir, op.out))
                solved[op.instance] = (i, busy)
                _busy_bounds(plan, op, inst(op.instance), busy, oracle)
            else:
                summary = check.check_trace(inst(op.instance), os.path.join(workdir, op.out))
                _policy_properties(plan, op, inst(op.instance), summary)
                traces[op.instance].append(summary)
        except Exception as exc:  # any bad output counts against its operation
            failures[i] = f"{op.label}: {type(exc).__name__}: {exc}"

    # A trace that meets every due date is a feasible schedule, so the
    # least busy time cannot exceed its busy time.
    for name, (i, busy) in solved.items():
        for summary in traces[name]:
            if summary.missed:
                continue
            try:
                check.check_busy_at_most(busy, summary.busy_time, summary.bits, name,
                                         "the busy time of an on-time trace")
            except CheckError as exc:
                failures.setdefault(i, f"{plan.ops[i].label}: {exc}")
    return failures


def _busy_bounds(plan, op, instance, busy, oracle):
    if op.instance in plan.planted_busy:
        check.check_busy_at_most(busy, plan.planted_busy[op.instance], instance.bits,
                                 op.out, "the planted witness's busy time")
    if op.tiny:
        bound = check.grid_oracle_busy(instance)
        if bound is None:
            raise CheckError(f"{op.instance}: the grid oracle finds no schedule")
        check.check_busy_at_most(busy, bound, instance.bits, op.out, "the grid oracle's value")
    if oracle and op.instance in oracle:
        check.check_busy_at_most(busy, oracle[op.instance], instance.bits, op.out,
                                 "rampsched's grid oracle value")


def _policy_properties(plan, op, instance, summary):
    family = plan.family[op.instance]
    if op.policy == "thrashing":
        check.check_thrashing_bound(summary, op.out)
    if op.policy == "lssf" and family == "lssf":
        check.check_lssf_cascade(instance, summary, op.out)
    if op.policy == "srpt" and family == "srpt":
        check.check_srpt_family(instance, summary, op.out)


class Verifier:
    """Verifies rounds, reusing the verdict when a round's outputs repeat.

    Every round runs the same operations on the same inputs, so a round
    whose exit codes and output bytes equal an already verified round's
    gets that round's verdict; any difference triggers a full check.
    """

    def __init__(self, plan, oracle=None):
        self.plan = plan
        self.oracle = oracle
        self.seen = {}

    def __call__(self, codes, workdir):
        digest = hashlib.sha256(repr(codes).encode())
        for op in self.plan.ops:
            for name in op.outputs:
                try:
                    with open(os.path.join(workdir, name), "rb") as fh:
                        digest.update(fh.read())
                except OSError:
                    digest.update(b"<missing>")
        key = digest.hexdigest()
        if key not in self.seen:
            self.seen[key] = verify_round(self.plan, codes, workdir, self.oracle)
        return self.seen[key]
