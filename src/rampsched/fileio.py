"""JSON file formats for instances, schedules, and traces.

Numeric fields are exact decimal strings produced by the precision
context, so save/load round-trips are bit-identical at a given
precision and files written at high precision do not silently decay
to doubles.  Files are compact JSON, written in bounded slices.
Parsers report the JSON location for syntax errors and the offending
field for schema errors.
"""

from __future__ import annotations

import json

from .core import (
    Instance,
    Job,
    Policy,
    PrecisionContext,
    Schedule,
    SpeedFunction,
    stretch,
    total_busy_time,
)

# Neither offline nor online is imported here: `solve` writes schedules
# without loading the simulator, and `gen` writes instances with
# neither.  The trace functions import online's names themselves.

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Malformed instance/trace/schedule file."""


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc


# Items per C-encoder call when a file's long lists and maps are written.
SLICE = 256

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _write_json(record, path):
    """Write record to path as compact JSON, a bounded slice at a time.

    Only a one-shot, unindented encode runs CPython's C encoder, and
    encoding a whole record at once would hold all of its text in
    memory.  So the record's top two levels of objects are written key
    by key, a list or object longer than SLICE in slices of SLICE
    items, and everything else in one call.
    """
    with open(path, "w") as fh:
        _write_value(fh.write, record, 2)
        fh.write("\n")


def _write_value(write, value, depth):
    """Write value's JSON text; objects `depth` levels down go key by key."""
    if isinstance(value, dict) and depth > 0:
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write(f"{',' if i else ''}{_encode(str(key))}:")
            _write_value(write, item, depth - 1)
        write("}")
    elif isinstance(value, (list, dict)) and len(value) > SLICE:
        is_list = isinstance(value, list)
        items = value if is_list else list(value.items())
        write("[" if is_list else "{")
        for i in range(0, len(items), SLICE):
            part = items[i : i + SLICE]
            write(("," if i else "") + _encode(part if is_list else dict(part))[1:-1])
        write("]" if is_list else "}")
    else:
        write(_encode(value))


def _expect(record, field, kinds, where):
    if field not in record:
        raise FileFormatError(f"{where}: missing field {field!r}")
    value = record[field]
    # JSON true/false load as bool, which Python counts as an int.
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise FileFormatError(f"{where}: field {field!r} has the wrong type")
    return value


def _parse_number(text, ctx, where, field):
    if not isinstance(text, str):
        raise FileFormatError(
            f"{where}: field {field!r} must be a decimal string, got {type(text).__name__}"
        )
    try:
        return ctx.parse(text)
    except (ValueError, ArithmeticError) as exc:
        raise FileFormatError(f"{where}: field {field!r}: {exc}") from exc


def _rows(record, field, path, label):
    """(location, row) for each object in the list record[field]."""
    for i, row in enumerate(_expect(record, field, list, path)):
        where = f"{path}: {label}[{i}]"
        if not isinstance(row, dict):
            raise FileFormatError(f"{where}: expected an object")
        yield where, row


def _job(record, ctx, where, jid, release, due, work, base, slope):
    """The row's Job; a window that collapsed on parsing names the file's precision."""
    try:
        return Job(jid, release, due, work, SpeedFunction(base, slope))
    except ValueError as exc:
        message = f"{where}: {exc}"
        bits = record.get("precision_bits")
        if not release < due and type(bits) is int and bits > ctx.bits:
            message += f"; file written at {bits} bits; retry with --precision {bits}"
        raise FileFormatError(message) from exc


def _check_schema(record, path, kind):
    version = _expect(record, "schema_version", int, path)
    if version != SCHEMA_VERSION:
        raise FileFormatError(f"{path}: unsupported schema_version {version}")
    found = _expect(record, "kind", str, path)
    if found != kind:
        raise FileFormatError(f"{path}: expected a {kind} file, found {found!r}")


# --- instances ---------------------------------------------------------------


def instance_to_record(instance: Instance, ctx: PrecisionContext) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "name": instance.name,
        "provenance": instance.provenance,
        "precision_bits": ctx.bits,
        "jobs": [
            {
                "id": j.id,
                "release": ctx.format(j.release),
                "due": ctx.format(j.due),
                "work": ctx.format(j.work),
                "base": ctx.format(j.speed.base),
                "slope": ctx.format(j.speed.slope),
            }
            for j in instance.jobs
        ],
    }


def save_instance(instance: Instance, path, ctx: PrecisionContext):
    _write_json(instance_to_record(instance, ctx), path)


def load_instance(path, ctx: PrecisionContext) -> Instance:
    record = _read_json(path)
    _check_schema(record, path, "instance")
    jobs = []
    for where, row in _rows(record, "jobs", path, "jobs"):
        jid = _expect(row, "id", int, where)
        release = _parse_number(row.get("release"), ctx, where, "release")
        due = _parse_number(row.get("due"), ctx, where, "due")
        work = _parse_number(row.get("work"), ctx, where, "work")
        base = _parse_number(row.get("base", "0"), ctx, where, "base")
        slope = _parse_number(row.get("slope", "1"), ctx, where, "slope")
        jobs.append(_job(record, ctx, where, jid, release, due, work, base, slope))
    if not jobs:
        raise FileFormatError(f"{path}: instance has no jobs")
    try:
        return Instance(
            tuple(jobs),
            name=str(record.get("name", "")),
            provenance=str(record.get("provenance", "")),
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# --- schedules ---------------------------------------------------------------


def schedule_to_record(
    instance: Instance, schedule: Schedule, verdict, ctx: PrecisionContext
) -> dict:
    """The schedule file's record; verdict is an offline.FeasibilityVerdict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "schedule",
        "instance": instance.name,
        "precision_bits": ctx.bits,
        "verdict": {
            "status": verdict.status.value,
            "margin": None if verdict.margin is None else ctx.format(verdict.margin),
            "deficits": {
                str(jid): ctx.format(v) for jid, v in sorted(verdict.deficits.items())
            },
        },
        "busy_time": ctx.format(total_busy_time(schedule)),
        "segments": [
            {
                "job": s.job,
                "start": ctx.format(s.start),
                "end": ctx.format(s.end),
                "work": ctx.format(s.work_done),
            }
            for s in schedule.segments
        ],
    }


def save_schedule(instance, schedule, verdict, path, ctx):
    _write_json(schedule_to_record(instance, schedule, verdict, ctx), path)


# --- traces ------------------------------------------------------------------


class TraceRecord:
    """A trace as loaded from disk, after self-consistency checks."""

    __slots__ = (
        "instance_name", "policy", "events", "completions", "stretches",
        "max_stretch", "busy_time", "missed",
    )

    def __init__(
        self,
        instance_name: str,
        policy,
        events: list,
        completions: dict,
        stretches: dict,
        max_stretch,
        busy_time,
        missed: list,
    ):
        self.instance_name = instance_name
        self.policy = policy  # an online.PolicySpec
        self.events = events
        self.completions = completions
        self.stretches = stretches
        self.max_stretch = max_stretch
        self.busy_time = busy_time
        self.missed = missed


def trace_to_record(trace, ctx: PrecisionContext) -> dict:
    """The trace file's record of an online.SimTrace."""
    from .online import missed_due_dates

    inst = trace.instance
    spec = trace.policy
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace",
        "precision_bits": ctx.bits,
        "instance": {
            "name": inst.name,
            "jobs": [
                {
                    "id": j.id,
                    "release": ctx.format(j.release),
                    "due": ctx.format(j.due),
                }
                for j in inst.jobs
            ],
        },
        "policy": {
            "kind": spec.kind.value,
            "alpha": ctx.format(spec.alpha),
            "speed_cap_factor": (
                None
                if spec.speed_cap_factor is None
                else ctx.format(spec.speed_cap_factor)
            ),
        },
        "events": [
            {
                "time": ctx.format(e.time),
                "kind": e.kind.value,
                "job": e.job,
            }
            for e in trace.events
        ],
        "summary": {
            "completions": {
                str(jid): ctx.format(t) for jid, t in sorted(trace.completions.items())
            },
            "stretches": {
                str(jid): ctx.format(s) for jid, s in sorted(trace.stretches.items())
            },
            "max_stretch": ctx.format(max(trace.stretches.values())),
            "busy_time": ctx.format(trace.busy_time),
            "missed_due_dates": missed_due_dates(trace),
        },
    }


def save_trace(trace, path, ctx: PrecisionContext):
    _write_json(trace_to_record(trace, ctx), path)


def _job_id(value, jobs, where):
    """value, checked to be the id of one of the trace's jobs."""
    # type(), not isinstance(): JSON true would pass as job 1.
    if type(value) is not int or value not in jobs:
        raise FileFormatError(f"{where}: unknown job {value!r}")
    return value


def _per_job(summary, field, jobs, ctx, path):
    """A summary map from job id to number, covering exactly the trace's jobs."""
    where = f"{path}: summary.{field}"
    names = {str(jid): jid for jid in jobs}  # JSON object keys are strings
    out = {}
    for key, text in _expect(summary, field, dict, f"{path}: summary").items():
        if key not in names:
            raise FileFormatError(f"{where}: unknown job {key!r}")
        out[names[key]] = _parse_number(text, ctx, where, key)
    if len(out) != len(jobs):
        raise FileFormatError(f"{where}: missing jobs {sorted(set(jobs) - set(out))}")
    return out


def load_trace(path, ctx: PrecisionContext) -> TraceRecord:
    """Load a trace and recompute its summary from the event stream.

    The stored summary is rejected if it disagrees with what the
    events imply, so a trace file cannot drift from its own log.
    """
    from .online import EventKind, PolicySpec

    record = _read_json(path)
    _check_schema(record, path, "trace")
    # The stored summary is only as accurate as the precision that wrote
    # it, so self-checks run at the coarser of the two tolerances.
    file_bits = record.get("precision_bits")
    check = ctx
    if isinstance(file_bits, int) and 24 <= file_bits < ctx.bits:
        check = PrecisionContext(bits=file_bits)
    inst_block = _expect(record, "instance", dict, path)
    rows = []
    for where, row in _rows(inst_block, "jobs", path, "instance.jobs"):
        jid = _expect(row, "id", int, where)
        release = _parse_number(row.get("release"), ctx, where, "release")
        due = _parse_number(row.get("due"), ctx, where, "due")
        rows.append(_job(record, ctx, where, jid, release, due, 0, 0, 1))
    if not rows:
        raise FileFormatError(f"{path}: trace instance has no jobs")
    try:
        jobs = Instance(tuple(rows)).by_id
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    pol = _expect(record, "policy", dict, path)
    try:
        kind = Policy(_expect(pol, "kind", str, f"{path}: policy"))
    except ValueError as exc:
        raise FileFormatError(f"{path}: unknown policy kind") from exc
    cap = pol.get("speed_cap_factor")
    spec = PolicySpec(
        kind,
        alpha=_parse_number(pol.get("alpha", "2"), ctx, f"{path}: policy", "alpha"),
        speed_cap_factor=(
            None if cap is None else _parse_number(cap, ctx, f"{path}: policy", "cap")
        ),
    )
    events = []
    for where, row in _rows(record, "events", path, "events"):
        t = _parse_number(row.get("time"), ctx, where, "time")
        try:
            kind_ev = EventKind(_expect(row, "kind", str, where))
        except ValueError as exc:
            raise FileFormatError(f"{where}: unknown event kind") from exc
        jid = row.get("job")
        events.append((t, kind_ev, None if jid is None else _job_id(jid, jobs, where)))

    # replay the event stream
    completions = {}
    busy = ctx.real(0)
    open_run = None
    last_t = None
    for t, kind_ev, jid in events:
        if last_t is not None and t < last_t:
            raise FileFormatError(f"{path}: events go backward in time")
        last_t = t
        if kind_ev is EventKind.START:
            if open_run is not None:
                raise FileFormatError(f"{path}: start while job {open_run[0]} runs")
            open_run = (jid, t)
        elif kind_ev in (EventKind.PREEMPT, EventKind.COMPLETE):
            if open_run is not None and open_run[0] == jid:
                busy = busy + (t - open_run[1])
                open_run = None
            elif kind_ev is EventKind.PREEMPT:
                raise FileFormatError(f"{path}: preempt of a job that is not running")
            if kind_ev is EventKind.COMPLETE:
                if jid in completions:
                    raise FileFormatError(f"{path}: job {jid} completes twice")
                completions[jid] = t
    if open_run is not None:
        raise FileFormatError(f"{path}: trace ends while job {open_run[0]} runs")

    summary = _expect(record, "summary", dict, path)
    stored_busy = _parse_number(
        summary.get("busy_time"), ctx, f"{path}: summary", "busy_time"
    )
    if not check.close(stored_busy, busy):
        raise FileFormatError(
            f"{path}: summary busy_time {stored_busy} disagrees with events ({busy})"
        )
    stored_completions = _per_job(summary, "completions", jobs, ctx, path)
    stored_stretches = _per_job(summary, "stretches", jobs, ctx, path)
    stretches = {}
    for jid, c in stored_completions.items():
        if jid not in completions or not check.close(completions[jid], c):
            raise FileFormatError(
                f"{path}: summary completion of job {jid} disagrees with events"
            )
        try:
            stretches[jid] = stretch(jobs[jid], c)
        except ValueError as exc:
            raise FileFormatError(f"{path}: job {jid}: {exc}") from exc
        if not check.close(stretches[jid], stored_stretches[jid]):
            raise FileFormatError(
                f"{path}: summary stretch of job {jid} disagrees with events"
            )
    worst = max(stretches.values())
    stored_worst = _parse_number(
        summary.get("max_stretch"), ctx, f"{path}: summary", "max_stretch"
    )
    if not check.close(stored_worst, worst):
        raise FileFormatError(f"{path}: summary max_stretch disagrees with events")
    missed = [
        _job_id(jid, jobs, f"{path}: summary.missed_due_dates")
        for jid in _expect(summary, "missed_due_dates", list, f"{path}: summary")
    ]
    for jid, job in jobs.items():
        # A completion within tolerance of its due date may go either way.
        done = completions[jid]
        if not check.close(done, job.due) and (done > job.due) != (jid in missed):
            raise FileFormatError(
                f"{path}: summary missed_due_dates disagrees with events at job {jid}"
            )
    return TraceRecord(
        instance_name=str(inst_block.get("name", "")),
        policy=spec,
        events=events,
        completions=completions,
        stretches=stretches,
        max_stretch=worst,
        busy_time=busy,
        missed=missed,
    )


# --- plot data ---------------------------------------------------------------


def write_plot_data(trace, path, ctx: PrecisionContext):
    """Two CSVs: per-job summary at `path`, Gantt rows alongside it.

    The Gantt file name is the summary name with a .gantt.csv suffix.
    """
    path = str(path)
    gantt_path = (
        path[: -len(".csv")] + ".gantt.csv" if path.endswith(".csv") else path + ".gantt.csv"
    )
    with open(path, "w") as fh:
        fh.write("job,release,due,completion,stretch\n")
        for j in trace.instance.jobs:
            fh.write(
                f"{j.id},{ctx.format(j.release)},{ctx.format(j.due)},"
                f"{ctx.format(trace.completions[j.id])},"
                f"{ctx.format(trace.stretches[j.id])}\n"
            )
    with open(gantt_path, "w") as fh:
        fh.write("job,start,end\n")
        for seg in trace.segments:
            fh.write(f"{seg.job},{ctx.format(seg.start)},{ctx.format(seg.end)}\n")
    return gantt_path
