"""Bit-identity gate over generated instances, schedules, verdicts and traces.

Each case hashes the canonical JSON of what the library writes to disk:
the instance record plus the solve verdict and schedule, and one trace
record per policy and speed cap.  The digests in golden_digests.json
were recorded from an earlier revision, so a refactor that must not
change any output keeps this test passing unchanged.  After an intended
change of output, rewrite the file with `python tests/test_golden.py`
and say in the changelog why the outputs moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rampsched import Instance, Job, PrecisionContext, Schedule
from rampsched import UnsupportedInstanceError, lazy_job, nonlazy_job
from rampsched.fileio import instance_to_record, schedule_to_record, trace_to_record
from rampsched.generators import (
    adaptive_adversary,
    gen_edd,
    gen_fifo,
    gen_lssf,
    gen_random_feasible,
    gen_srpt,
)
from rampsched.offline import SsrQuery, reduce_ssr, solve
from rampsched.online import Policy, PolicySpec, simulate

DIGESTS = Path(__file__).with_name("golden_digests.json")
BITS = (53, 128)
CAPS = (None, "2", "1", "0.75", "0.3")


def _mixed(ctx):
    """Constant-speed, ramp and ramp-with-base jobs side by side."""
    p = ctx.parse
    return Instance(
        (
            lazy_job(1, p("0"), p("4"), p("2")),
            nonlazy_job(2, p("1"), p("3"), p("1")),
            nonlazy_job(3, p("0.5"), p("5"), p("1.5"), base=p("2")),
            lazy_job(4, p("2"), p("5"), p("1"), slope=p("2")),
            Job(5, p("1"), p("4"), p("2"), p("0.5"), p("1")),
        ),
        name="mixed-speeds",
    )


INSTANCES = {
    "random-4-1": lambda ctx: gen_random_feasible(4, 1, ctx),
    "random-4-2": lambda ctx: gen_random_feasible(4, 2, ctx),
    "random-7-3": lambda ctx: gen_random_feasible(7, 3, ctx),
    "random-12-4": lambda ctx: gen_random_feasible(12, 4, ctx),
    "random-30-5": lambda ctx: gen_random_feasible(30, 5, ctx),
    "lssf-6": lambda ctx: gen_lssf(6, ctx),
    "lssf-16": lambda ctx: gen_lssf(16, ctx),
    "srpt-5": lambda ctx: gen_srpt(5, ctx),
    "srpt-12": lambda ctx: gen_srpt(12, ctx),
    "fifo-10": lambda ctx: gen_fifo(10, ctx),
    "edd-10": lambda ctx: gen_edd(10, ctx),
    "ssr-feasible": lambda ctx: reduce_ssr(SsrQuery((2, 3, 5), 5), ctx),
    "ssr-infeasible": lambda ctx: reduce_ssr(SsrQuery((4, 9), 6), ctx),
    "mixed-speeds": _mixed,
    "adversary-edd": lambda ctx: adaptive_adversary(PolicySpec(Policy.EDD), ctx)[0].instance,
    "adversary-srpt": lambda ctx: adaptive_adversary(PolicySpec(Policy.SRPT), ctx)[0].instance,
}


def _digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _solve_record(instance, ctx):
    """The verdict and schedule `rampsched solve` would report."""
    try:
        schedule, verdict = solve(instance, ctx)
    except UnsupportedInstanceError:
        return "unsupported"
    return schedule_to_record(instance, schedule or Schedule(()), verdict, ctx)


def _case_digests(bits, name):
    ctx = PrecisionContext(bits)
    instance = INSTANCES[name](ctx)
    prefix = f"{bits}/{name}"
    out = {
        f"{prefix}/solve": _digest(
            [instance_to_record(instance, ctx), _solve_record(instance, ctx)]
        )
    }
    for kind in Policy:
        traces = []
        for cap in CAPS:
            spec = PolicySpec(
                kind, speed_cap_factor=None if cap is None else ctx.parse(cap)
            )
            traces.append(trace_to_record(simulate(instance, spec, ctx), ctx))
        out[f"{prefix}/{kind.value}"] = _digest(traces)
    return out


CASES = [(bits, name) for bits in BITS for name in INSTANCES]


@pytest.mark.parametrize("bits,name", CASES, ids=[f"{b}-{n}" for b, n in CASES])
def test_outputs_match_recorded_digests(bits, name):
    recorded = json.loads(DIGESTS.read_text())
    for key, digest in _case_digests(bits, name).items():
        assert recorded[key] == digest, f"{key} changed"


if __name__ == "__main__":
    digests = {}
    for bits, name in CASES:
        digests.update(_case_digests(bits, name))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
