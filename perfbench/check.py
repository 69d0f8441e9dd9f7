"""Independent output checks in exact rational arithmetic.

Nothing here imports rampsched.  Every number is read from the decimal
strings in the instance, schedule and trace files as a
`fractions.Fraction`, so the only rounding left is what the program
wrote.  Tolerances scale with the precision recorded in each file:
`2**(SLACK_BITS - bits)` relative to the magnitudes involved, which is
far above honest roundoff and far below any corruption worth catching.

Each check raises `CheckError` with a message naming the first
violation; the callers count an operation as failed when it raises.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

# Bits of headroom between the file's precision and the tolerances used
# here: errors compound over chained solves, sums and differences.
SLACK_BITS = 20


class CheckError(Exception):
    """An output that disagrees with what the inputs imply."""


@dataclass(frozen=True)
class Job:
    id: int
    release: Fraction
    due: Fraction
    work: Fraction
    base: Fraction
    slope: Fraction


@dataclass(frozen=True)
class Instance:
    name: str
    bits: int
    jobs: dict  # id -> Job


@dataclass(frozen=True)
class TraceSummary:
    """What a trace file shows once replayed."""

    max_stretch: Fraction
    busy_time: Fraction
    completions: dict
    stretches: dict
    missed: frozenset
    bits: int


def _num(text, where):
    if not isinstance(text, str):
        raise CheckError(f"{where}: expected a decimal string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"{where}: bad decimal {text!r}") from exc


def _read(path, kind):
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or record.get("kind") != kind:
        raise CheckError(f"{path}: not a {kind} file")
    bits = record.get("precision_bits")
    if type(bits) is not int or bits < 24:
        raise CheckError(f"{path}: bad precision_bits {bits!r}")
    return record


def eps(bits):
    """Relative tolerance for a file written at `bits` of precision.

    Tolerances are floats: they are thresholds, while the quantities
    held against them are exact differences of Fractions, and Python
    compares a Fraction with a float exactly.
    """
    return 2.0 ** (SLACK_BITS - bits)


def load_instance(path) -> Instance:
    record = _read(path, "instance")
    jobs = {}
    for i, row in enumerate(record.get("jobs", [])):
        where = f"{path}: jobs[{i}]"
        jid = row.get("id")
        if type(jid) is not int or jid in jobs:
            raise CheckError(f"{where}: bad or duplicate id {jid!r}")
        job = Job(
            jid,
            _num(row.get("release"), where),
            _num(row.get("due"), where),
            _num(row.get("work"), where),
            _num(row.get("base", "0"), where),
            _num(row.get("slope", "1"), where),
        )
        if not job.release < job.due or job.work < 0 or job.base < 0 or job.slope < 0:
            raise CheckError(f"{where}: malformed job")
        jobs[jid] = job
    if not jobs:
        raise CheckError(f"{path}: no jobs")
    return Instance(str(record.get("name", "")), record["precision_bits"], jobs)


def ramp_work(job: Job, a, b):
    """Work the job absorbs running over [a, b]: the integral of its speed."""
    w = job.slope * (b - a) * (a + b - 2 * job.release) / 2
    return w + job.base * (b - a) if job.base else w


def _time_tol(bits, *times):
    return eps(bits) * max(1.0, *(abs(float(t)) for t in times))


def _work_tol(bits, job: Job, a, b, work):
    """Roundoff allowed in `work` = ramp_work(job, a, b) as the program computed it.

    Endpoints rounded to `bits` move by up to eps*|t|, which moves the
    integral by up to speed(b) times that; the result itself rounds too.
    """
    fa, fb, fr = float(a), float(b), float(job.release)
    speed = float(job.base) + float(job.slope) * abs(fb - fr)
    scale = max(1.0, abs(fa), abs(fb), abs(fr))
    return eps(bits) * (2 * speed * scale + abs(float(work)) + 1)


# --- schedules ---------------------------------------------------------------


def check_schedule(inst: Instance, path) -> Fraction:
    """Validate a `solve --out` schedule; returns its busy time.

    The verdict must be feasible; segments must be disjoint, inside
    their jobs' windows, and each must claim the ramp integral over its
    span; each job's segments must add up to its work.
    """
    record = _read(path, "schedule")
    bits = min(record["precision_bits"], inst.bits)
    status = (record.get("verdict") or {}).get("status")
    if status != "feasible":
        raise CheckError(f"{path}: verdict {status!r}, expected 'feasible'")
    segs = []
    for i, row in enumerate(record.get("segments", [])):
        where = f"{path}: segments[{i}]"
        job = inst.jobs.get(row.get("job"))
        if job is None:
            raise CheckError(f"{where}: unknown job {row.get('job')!r}")
        a, b = _num(row.get("start"), where), _num(row.get("end"), where)
        w = _num(row.get("work"), where)
        if not a < b:
            raise CheckError(f"{where}: empty or reversed segment")
        if job.release - a > _time_tol(bits, a, job.release):
            raise CheckError(f"{where}: job {job.id} runs before its release")
        if b - job.due > _time_tol(bits, b, job.due):
            raise CheckError(f"{where}: job {job.id} runs past its due date")
        exact = ramp_work(job, a, b)
        if abs(w - exact) > _work_tol(bits, job, a, b, exact):
            raise CheckError(f"{where}: work {float(w)} is not the ramp integral")
        segs.append((a, b, job, exact))
    segs.sort(key=lambda s: (s[0], s[1]))
    for (a0, b0, j0, _), (a1, b1, j1, _) in zip(segs, segs[1:]):
        if b0 - a1 > _time_tol(bits, b0):
            raise CheckError(f"{path}: jobs {j0.id} and {j1.id} overlap at {float(a1)}")
    _check_totals(inst, bits, [(job, a, b, w) for a, b, job, w in segs], path)
    busy = sum((b - a for a, b, _, _ in segs), Fraction(0))
    stored = _num(record.get("busy_time"), f"{path}: busy_time")
    if abs(stored - busy) > _time_tol(bits, busy) * (len(segs) + 1):
        raise CheckError(f"{path}: busy_time {float(stored)} but segments sum to {float(busy)}")
    return busy


def _check_totals(inst, bits, runs, where):
    """Each job's runs, given as (job, start, end, ramp work), must add up to its work."""
    done = {jid: Fraction(0) for jid in inst.jobs}
    tol = {jid: eps(bits) * (abs(float(j.work)) + 1) for jid, j in inst.jobs.items()}
    for job, a, b, work in runs:
        done[job.id] += work
        tol[job.id] += _work_tol(bits, job, a, b, work)
    for jid, job in inst.jobs.items():
        if abs(done[jid] - job.work) > tol[jid]:
            raise CheckError(
                f"{where}: job {jid} receives {float(done[jid])} work, needs {float(job.work)}"
            )


# --- traces ------------------------------------------------------------------


def check_trace(inst: Instance, path) -> TraceSummary:
    """Replay a `simulate --trace-out` trace against its instance.

    Times never decrease; at most one job runs at a time; each job is
    released once, starts only after its release and completes exactly
    once; the work integrated over its runs equals its work; the stored
    completions, stretches, busy time, maximum stretch and missed due
    dates agree with the replay.
    """
    record = _read(path, "trace")
    bits = min(record["precision_bits"], inst.bits)
    released, completions, runs = set(), {}, []
    running = None  # (job, start)
    last = None
    for i, row in enumerate(record.get("events", [])):
        where = f"{path}: events[{i}]"
        if not isinstance(row, dict):
            raise CheckError(f"{where}: not an object")
        t = _num(row.get("time"), where)
        kind, jid = row.get("kind"), row.get("job")
        if last is not None and t < last:
            raise CheckError(f"{where}: time goes backward")
        last = t
        if kind in ("idle-begin", "idle-end"):
            if running is not None:
                raise CheckError(f"{where}: {kind} while job {running[0].id} runs")
            continue
        job = inst.jobs.get(jid)
        if job is None:
            raise CheckError(f"{where}: unknown job {jid!r}")
        if jid in completions:
            raise CheckError(f"{where}: {kind} for job {jid} after it completed")
        if kind == "release":
            if jid in released or abs(t - job.release) > _time_tol(bits, t):
                raise CheckError(f"{where}: bad release of job {jid}")
            released.add(jid)
        elif kind == "start":
            if running is not None:
                raise CheckError(f"{where}: job {jid} starts while job {running[0].id} runs")
            if jid not in released:
                raise CheckError(f"{where}: job {jid} starts before its release")
            running = (job, t)
        elif kind in ("preempt", "complete"):
            if running is not None and running[0].id == jid:
                if t > running[1]:
                    runs.append((job, running[1], t, ramp_work(job, running[1], t)))
                running = None
            elif kind == "preempt" or job.work != 0:
                raise CheckError(f"{where}: {kind} of job {jid}, which is not running")
            if kind == "complete":
                if jid not in released:
                    raise CheckError(f"{where}: job {jid} completes before its release")
                completions[jid] = t
        else:
            raise CheckError(f"{where}: unknown event kind {kind!r}")
    if running is not None:
        raise CheckError(f"{path}: trace ends while job {running[0].id} runs")
    missing = sorted(set(inst.jobs) - set(completions))
    if missing:
        raise CheckError(f"{path}: jobs {missing[:5]} never complete")
    _check_totals(inst, bits, runs, path)

    summary = record.get("summary")
    if not isinstance(summary, dict):
        raise CheckError(f"{path}: no summary")
    stored_c = summary.get("completions") or {}
    stored_s = summary.get("stretches") or {}
    if set(stored_c) != {str(j) for j in inst.jobs} or set(stored_s) != set(stored_c):
        raise CheckError(f"{path}: summary does not list every job once")
    stretches = {}
    for jid, job in inst.jobs.items():
        c = completions[jid]
        if abs(_num(stored_c[str(jid)], path) - c) > _time_tol(bits, c):
            raise CheckError(f"{path}: stored completion of job {jid} disagrees with events")
        exact = (c - job.release) / (job.due - job.release)
        s = _num(stored_s[str(jid)], path)
        scale = max(1.0, abs(float(c))) / float(job.due - job.release) + abs(float(exact))
        if abs(s - exact) > eps(bits) * scale:
            raise CheckError(
                f"{path}: stored stretch {float(s)} of job {jid} is not (c-r)/(d-r) = {float(exact)}"
            )
        stretches[jid] = s
    busy = sum((b - a for _, a, b, _ in runs), Fraction(0))
    stored_busy = _num(summary.get("busy_time"), path)
    if abs(stored_busy - busy) > _time_tol(bits, busy) * (len(runs) + 1):
        raise CheckError(f"{path}: stored busy time {float(stored_busy)}, events give {float(busy)}")
    worst = max(stretches.values())
    if _num(summary.get("max_stretch"), path) != worst:
        raise CheckError(f"{path}: stored max stretch is not the largest stored stretch")
    missed = frozenset(
        jid for jid, job in inst.jobs.items()
        if completions[jid] - job.due > _time_tol(bits, job.due)
    )
    on_time = {
        jid for jid, job in inst.jobs.items()
        if job.due - completions[jid] > _time_tol(bits, job.due)
    }
    listed = summary.get("missed_due_dates")
    if not isinstance(listed, list) or not missed <= set(listed) or on_time & set(listed):
        raise CheckError(f"{path}: missed_due_dates disagrees with the completions")
    return TraceSummary(worst, busy, completions, stretches, missed, bits)


# --- closed forms and bounds -------------------------------------------------


def near_sqrt(x, square, rel) -> bool:
    """True when x lies within rel*x of sqrt(square), decided exactly.

    Squares both ends of [x(1-rel), x(1+rel)] instead of taking a root.
    """
    x = Fraction(x)
    return x > 0 and (x * (1 - rel)) ** 2 <= square <= (x * (1 + rel)) ** 2


def property_tol(bits):
    """Closed forms chain hundreds of solves; compare them at half precision."""
    return Fraction(1, 2 ** (bits // 2))


def check_lssf_cascade(inst: Instance, summary: TraceSummary, where):
    """LSSF on the n-job cascade reaches max stretch sqrt(n-1)."""
    n = len(inst.jobs)
    if not near_sqrt(summary.max_stretch, n - 1, property_tol(summary.bits)):
        raise CheckError(
            f"{where}: LSSF max stretch {float(summary.max_stretch)} on the "
            f"{n}-job cascade, expected sqrt({n - 1}) = {(n - 1) ** 0.5}"
        )


def check_srpt_family(inst: Instance, summary: TraceSummary, where):
    """SRPT on the starvation family: the half-unit jobs run back to back.

    Ordered by id, the k-th job completes at sqrt(k-1); the unit job,
    due earliest, finishes last with stretch sqrt(n+1)/2.
    """
    rel = property_tol(summary.bits)
    n = len(inst.jobs)
    long_job = min(inst.jobs.values(), key=lambda j: (j.due, j.id))
    small = sorted(j for j in inst.jobs if j != long_job.id)
    for k, jid in enumerate(small, start=2):
        c = summary.completions[jid]
        if not near_sqrt(c, k - 1, rel):
            raise CheckError(f"{where}: job {jid} completes at {float(c)}, expected sqrt({k - 1})")
    if not near_sqrt(2 * summary.stretches[long_job.id], n + 1, rel):
        raise CheckError(
            f"{where}: long job stretch {float(summary.stretches[long_job.id])}, "
            f"expected sqrt({n + 1})/2"
        )


def check_thrashing_bound(summary: TraceSummary, where, alpha=2):
    """Thrashing(alpha) keeps every stretch at or below alpha**2 on feasible inputs."""
    bound = Fraction(alpha) ** 2
    if summary.max_stretch - bound > float(bound) * eps(summary.bits):
        raise CheckError(f"{where}: thrashing max stretch {float(summary.max_stretch)} > {bound}")


def check_busy_at_most(busy, bound, bits, where, what):
    if busy - bound > _time_tol(bits, bound):
        raise CheckError(f"{where}: busy time {float(busy)} exceeds {what} {float(bound)}")


def grid_oracle_busy(inst: Instance, resolution=64):
    """Least busy time over grid-restricted schedules, in exact arithmetic.

    Every job's window is cut into `resolution` equal slices and the
    grids merged; each job order claims free slices inside the job's
    window from the right until its work is covered.  Each order that
    fits is a schedule, so the minimum bounds the optimal busy time
    from above.  Pure-ramp instances of at most four jobs only.
    """
    jobs = [j for j in inst.jobs.values() if j.work > 0]
    if len(jobs) > 4 or any(j.base != 0 for j in jobs):
        raise ValueError("grid oracle covers at most four pure-ramp jobs")
    points = sorted({
        j.release + k * (j.due - j.release) / resolution
        for j in jobs for k in range(resolution + 1)
    })
    slices = list(zip(points, points[1:]))
    inside = {
        j.id: [s for s, (a, b) in enumerate(slices) if a >= j.release and b <= j.due][::-1]
        for j in jobs
    }
    best = None
    for order in itertools.permutations(jobs):
        claimed, busy = set(), Fraction(0)
        for j in order:
            tol = eps(inst.bits) * (float(j.work) + 1)
            got = Fraction(0)
            for s in inside[j.id]:
                if j.work - got <= tol:
                    break
                if s in claimed:
                    continue
                claimed.add(s)
                a, b = slices[s]
                got += ramp_work(j, a, b)
                busy += b - a
            if j.work - got > tol:
                break
        else:
            if best is None or busy < best:
                best = busy
    return best


def isqrt_bounds(q: Fraction, bits=64):
    """(lo, hi) with lo <= sqrt(q) <= hi and hi - lo <= 2**-bits, exactly."""
    if q < 0:
        raise ValueError("negative square")
    scale = 4 ** bits
    root = math.isqrt(q.numerator * scale // q.denominator)
    lo = Fraction(root, 2 ** bits)
    return lo, lo + Fraction(1, 2 ** bits)
