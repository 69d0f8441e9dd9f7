"""The output checker must pass honest files and reject corrupted ones.

Run with:  python3 -m pytest perfbench/test_check.py
"""

import copy
import json
import random
from fractions import Fraction

import pytest

import check
from check import CheckError
from workloads import write_planted


def _instance(jobs, bits=53):
    return {
        "schema_version": 1, "kind": "instance", "name": "hand", "provenance": "",
        "precision_bits": bits,
        "jobs": [{"id": i, "release": r, "due": d, "work": w, "base": "0", "slope": "1"}
                 for i, r, d, w in jobs],
    }


# Two unit-slope ramps sharing the window [0, 4]: job 1 runs [1, 2]
# (work (2^2 - 1^2)/2 = 1.5), job 2 runs [2, 3] (work (9 - 4)/2 = 2.5).
SCHED_INSTANCE = _instance([(1, "0", "4", "1.5"), (2, "0", "4", "2.5")])
SCHEDULE = {
    "schema_version": 1, "kind": "schedule", "instance": "hand", "precision_bits": 53,
    "verdict": {"status": "feasible", "margin": None, "deficits": {}},
    "busy_time": "2",
    "segments": [
        {"job": 1, "start": "1", "end": "2", "work": "1.5"},
        {"job": 2, "start": "2", "end": "3", "work": "2.5"},
    ],
}

# Job 1 (window [0, 2], work 0.5) runs [0, 1]; job 2 (window [1, 3],
# work 0.5) runs [1, 2].  Both stretches are 1/2.
TRACE_INSTANCE = _instance([(1, "0", "2", "0.5"), (2, "1", "3", "0.5")])
TRACE = {
    "schema_version": 1, "kind": "trace", "precision_bits": 53,
    "instance": {"name": "hand", "jobs": []},
    "policy": {"kind": "fifo", "alpha": "2", "speed_cap_factor": None},
    "events": [
        {"time": "0", "kind": "release", "job": 1},
        {"time": "0", "kind": "start", "job": 1},
        {"time": "1", "kind": "complete", "job": 1},
        {"time": "1", "kind": "release", "job": 2},
        {"time": "1", "kind": "start", "job": 2},
        {"time": "2", "kind": "complete", "job": 2},
    ],
    "summary": {
        "completions": {"1": "1", "2": "2"},
        "stretches": {"1": "0.5", "2": "0.5"},
        "max_stretch": "0.5", "busy_time": "2", "missed_due_dates": [],
    },
}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def _check_schedule(tmp_path, schedule):
    inst = check.load_instance(_write(tmp_path, "inst.json", SCHED_INSTANCE))
    return check.check_schedule(inst, _write(tmp_path, "sched.json", schedule))


def _check_trace(tmp_path, trace):
    inst = check.load_instance(_write(tmp_path, "inst.json", TRACE_INSTANCE))
    return check.check_trace(inst, _write(tmp_path, "trace.json", trace))


def test_honest_schedule_passes(tmp_path):
    assert _check_schedule(tmp_path, SCHEDULE) == 2


def _corrupt_schedule(edit):
    bad = copy.deepcopy(SCHEDULE)
    edit(bad["segments"])
    return bad


@pytest.mark.parametrize("edit, message", [
    # shifted segment: same length and claimed work, half a unit later
    (lambda s: s[1].update(start="2.5", end="3.5"), "not the ramp integral"),
    # overlapping segments, each with the right work for its own span
    (lambda s: s[1].update(start="1.5", end="2.5", work="2"), "overlap"),
    # wrong segment work, the job's total off by the same amount
    (lambda s: s[0].update(work="1.6"), "not the ramp integral"),
    # a segment past the due date
    (lambda s: s[1].update(start="3", end="4.5", work="6.375"), "past its due date"),
    # a job left short: its segment dropped
    (lambda s: s.pop(), "needs"),
])
def test_corrupted_schedule_is_rejected(tmp_path, edit, message):
    with pytest.raises(CheckError, match=message):
        _check_schedule(tmp_path, _corrupt_schedule(edit))


def test_infeasible_verdict_is_rejected(tmp_path):
    bad = copy.deepcopy(SCHEDULE)
    bad["verdict"]["status"] = "indeterminate"
    with pytest.raises(CheckError, match="expected 'feasible'"):
        _check_schedule(tmp_path, bad)


def test_honest_trace_passes(tmp_path):
    summary = _check_trace(tmp_path, TRACE)
    assert summary.max_stretch == Fraction(1, 2)
    assert summary.busy_time == 2
    assert not summary.missed


def _corrupt_trace(edit):
    bad = copy.deepcopy(TRACE)
    edit(bad)
    return bad


@pytest.mark.parametrize("edit, message", [
    # dropped completion
    (lambda t: t["events"].pop(), "ends while job 2 runs"),
    # wrong stored stretch
    (lambda t: t["summary"]["stretches"].update({"2": "0.6"}), r"not \(c-r\)/\(d-r\)"),
    # time going backward
    (lambda t: t["events"][5].update(time="0.9"), "backward"),
    # a job completing twice
    (lambda t: t["events"].append({"time": "2", "kind": "complete", "job": 2}), "after it completed"),
    # a run that does not integrate to the job's work
    (lambda t: t["events"][2].update(time="0.75"), "needs"),
    # a missed due date left out of the summary
    (lambda t: [e.update(time="3.5") for e in t["events"][5:]], "disagrees|needs"),
])
def test_corrupted_trace_is_rejected(tmp_path, edit, message):
    with pytest.raises(CheckError, match=message):
        _check_trace(tmp_path, _corrupt_trace(edit))


def test_two_jobs_at_once_is_rejected(tmp_path):
    inst = _instance([(1, "0", "2", "0.5"), (2, "0", "3", "0.5")])
    bad = _corrupt_trace(lambda t: t["events"].__setitem__(slice(None), [
        {"time": "0", "kind": "release", "job": 1},
        {"time": "0", "kind": "release", "job": 2},
        {"time": "0", "kind": "start", "job": 1},
        {"time": "0", "kind": "start", "job": 2},
        {"time": "1", "kind": "complete", "job": 1},
        {"time": "1", "kind": "complete", "job": 2},
    ]))
    loaded = check.load_instance(_write(tmp_path, "inst.json", inst))
    with pytest.raises(CheckError, match="starts while job 1 runs"):
        check.check_trace(loaded, _write(tmp_path, "trace.json", bad))


def test_near_sqrt_decides_exactly():
    rel = Fraction(1, 2 ** 40)
    assert check.near_sqrt(Fraction(14142135623731, 10 ** 13), 2, rel)
    assert not check.near_sqrt(Fraction(14142, 10 ** 4), 2, rel)


def test_isqrt_bounds_bracket_the_root():
    lo, hi = check.isqrt_bounds(Fraction(2), bits=50)
    assert lo * lo <= 2 <= hi * hi and hi - lo == Fraction(1, 2 ** 50)


def test_grid_oracle_bounds_a_known_optimum(tmp_path):
    # One ramp filling the last unit of [0, 2]: the least busy time is 1
    # (work (4 - 1)/2), and a grid that includes t = 1 finds it exactly.
    inst = check.load_instance(_write(tmp_path, "i.json", _instance([(1, "0", "2", "1.5")])))
    assert check.grid_oracle_busy(inst, resolution=4) == 1


def test_planted_instance_loads_with_a_witness_busy_time_below_its_windows(tmp_path):
    path = str(tmp_path / "planted.json")
    bound = write_planted(path, 50, random.Random(3), "p")
    inst = check.load_instance(path)
    assert len(inst.jobs) == 50
    # The witness busy time is at most the total slot length, and positive.
    assert 0 < bound < sum(j.due - j.release for j in inst.jobs.values())
