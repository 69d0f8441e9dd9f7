"""JSON file formats for instances, schedules, and traces.

Numeric fields are exact decimal strings produced by the precision
context, so save/load round-trips are bit-identical at a given
precision and files written at high precision do not silently decay
to doubles.  Files are compact JSON.  The save functions stream each
file straight from the objects: a row is one f-string, and rows go out
in slices of SLICE, so no whole record or file text is ever held in
memory.  The `*_to_record` functions build the same content as dicts;
a file's text is exactly json.dumps of its record with compact
separators, which is what the tests hold the writers to, and `gen`
prints an instance's record when it has no --out.

load_instance parses its job table one column at a time, at every
precision.  When any value fails, a scan in row order parses the table
and names the first bad row and field.  load_trace returns the
online.SimTrace that simulate built: its jobs carry their windows with
work 0 at unit slope, and its segments, replayed from the events, carry
work_done None, since a trace file stores neither work nor speeds.
Parsers report the JSON location for syntax errors and the offending
field for schema errors.
"""

from __future__ import annotations

import json
from itertools import islice

from .core import (
    Instance,
    Job,
    Policy,
    PrecisionContext,
    Schedule,
    Segment,
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


# Rows per write when a file's lists and maps are streamed.
SLICE = 256

# The JSON text of a free-text value: names, provenance, status and
# kind strings.  Numbers come from ctx.format, whose text needs no escaping.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _write_rows(write, rows):
    """Write the row texts comma-separated, SLICE rows per write call."""
    rows = iter(rows)
    lead = ""
    while part := ",".join(islice(rows, SLICE)):
        write(lead + part)
        lead = ","


def _null_or(text):
    return "null" if text is None else f'"{text}"'


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
        return Job(jid, release, due, work, base, slope)
    except ValueError as exc:
        message = f"{where}: {exc}"
        bits = record.get("precision_bits")
        if not release < due and type(bits) is int and bits > ctx.bits:
            message += f"; file written at {bits} bits; retry with --precision {bits}"
        raise FileFormatError(message) from exc


# A job row's numeric fields and their defaults, in the order a row is parsed.
_JOB_FIELDS = (("release", None), ("due", None), ("work", None), ("base", "0"), ("slope", "1"))


def _jobs(record, ctx, path):
    """The Jobs of an instance record's job table.

    The table is parsed column by column.  If any value fails, a scan
    in row order parses it again and raises for the first bad row and
    field.
    """
    rows = _expect(record, "jobs", list, path)
    if rows and all(type(row) is dict for row in rows):
        ids = [row.get("id") for row in rows]
        columns = [ctx.parse_all([row.get(field, default) for row in rows])
                   for field, default in _JOB_FIELDS]
        # type(), not isinstance(): JSON true would pass as id 1.
        if None not in columns and all(type(jid) is int for jid in ids):
            try:
                return list(map(Job, ids, *columns))
            except ValueError:
                pass
    jobs = []
    for where, row in _rows(record, "jobs", path, "jobs"):
        jid = _expect(row, "id", int, where)
        values = [_parse_number(row.get(field, default), ctx, where, field)
                  for field, default in _JOB_FIELDS]
        jobs.append(_job(record, ctx, where, jid, *values))
    return jobs


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
                "base": ctx.format(j.base),
                "slope": ctx.format(j.slope),
            }
            for j in instance.jobs
        ],
    }


def save_instance(instance: Instance, path, ctx: PrecisionContext):
    """Write instance_to_record's content as compact JSON."""
    fmt = ctx.format
    with open(path, "w") as fh:
        write = fh.write
        write(
            f'{{"schema_version":{SCHEMA_VERSION},"kind":"instance",'
            f'"name":{_encode(instance.name)},"provenance":{_encode(instance.provenance)},'
            f'"precision_bits":{ctx.bits},"jobs":['
        )
        _write_rows(write, (
            f'{{"id":{j.id},"release":"{fmt(j.release)}","due":"{fmt(j.due)}",'
            f'"work":"{fmt(j.work)}","base":"{fmt(j.base)}","slope":"{fmt(j.slope)}"}}'
            for j in instance.jobs
        ))
        write("]}\n")


def load_instance(path, ctx: PrecisionContext) -> Instance:
    record = _read_json(path)
    _check_schema(record, path, "instance")
    jobs = _jobs(record, ctx, path)
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
    """Write schedule_to_record's content as compact JSON."""
    fmt = ctx.format
    margin = None if verdict.margin is None else fmt(verdict.margin)
    deficits = verdict.deficits
    with open(path, "w") as fh:
        write = fh.write
        write(
            f'{{"schema_version":{SCHEMA_VERSION},"kind":"schedule",'
            f'"instance":{_encode(instance.name)},"precision_bits":{ctx.bits},'
            f'"verdict":{{"status":{_encode(verdict.status.value)},'
            f'"margin":{_null_or(margin)},"deficits":{{'
        )
        _write_rows(write, (f'"{jid}":"{fmt(deficits[jid])}"' for jid in sorted(deficits)))
        write(f'}}}},"busy_time":"{fmt(total_busy_time(schedule))}","segments":[')
        _write_rows(write, (
            f'{{"job":{s.job},"start":"{fmt(s.start)}","end":"{fmt(s.end)}",'
            f'"work":"{fmt(s.work_done)}"}}'
            for s in schedule.segments
        ))
        write("]}\n")


# --- traces ------------------------------------------------------------------


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
    """Write trace_to_record's content as compact JSON."""
    from .online import EventKind, missed_due_dates

    fmt = ctx.format
    inst = trace.instance
    spec = trace.policy
    cap = spec.speed_cap_factor
    # Keyed by value: an Enum member's hash is a Python-level call.
    kinds = {kind.value: _encode(kind.value) for kind in EventKind}
    completions, stretches = trace.completions, trace.stretches
    with open(path, "w") as fh:
        write = fh.write
        write(
            f'{{"schema_version":{SCHEMA_VERSION},"kind":"trace","precision_bits":{ctx.bits},'
            f'"instance":{{"name":{_encode(inst.name)},"jobs":['
        )
        _write_rows(write, (
            f'{{"id":{j.id},"release":"{fmt(j.release)}","due":"{fmt(j.due)}"}}'
            for j in inst.jobs
        ))
        write(
            f']}},"policy":{{"kind":{_encode(spec.kind.value)},"alpha":"{fmt(spec.alpha)}",'
            f'"speed_cap_factor":{_null_or(None if cap is None else fmt(cap))}}},"events":['
        )
        _write_rows(write, _event_rows(trace.events, fmt, kinds))
        write('],"summary":{"completions":{')
        _write_rows(write, (f'"{jid}":"{fmt(completions[jid])}"' for jid in sorted(completions)))
        write('},"stretches":{')
        _write_rows(write, (f'"{jid}":"{fmt(stretches[jid])}"' for jid in sorted(stretches)))
        write(
            f'}},"max_stretch":"{fmt(max(stretches.values()))}",'
            f'"busy_time":"{fmt(trace.busy_time)}","missed_due_dates":['
        )
        _write_rows(write, map(str, missed_due_dates(trace)))
        write("]}}\n")


def _event_rows(events, fmt, kinds):
    """Each event's row text.

    Events at one timestamp are consecutive and share one time object,
    so the time is formatted once per timestamp.  The test is identity,
    not value: a value-keyed cache would hold every distinct time, and
    would merge -0.0 with 0.0.
    """
    last = text = None
    for e in events:
        t = e.time
        if t is not last:
            last, text = t, fmt(t)
        job = "null" if e.job is None else e.job
        yield f'{{"time":"{text}","kind":{kinds[e.kind._value_]},"job":{job}}}'


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


def load_trace(path, ctx: PrecisionContext):
    """The online.SimTrace that a trace file records.

    Its instance holds each job row's id, release and due date, with
    work 0 at unit slope: a trace file stores no work or speeds.  The
    events are replayed.  A job's completion is its complete event, each
    start followed by that job's preempt or complete is a Segment with
    work_done None (empty spans are skipped, as simulate skips them), and
    the busy time is total_busy_time of those segments.  Saving the
    loaded trace at the precision that wrote it gives the same bytes.

    The file is rejected when its event log is one no simulation writes,
    or when its stored summary disagrees with the replay, so a trace
    file cannot drift from its own log.
    """
    from .online import EventKind, PolicySpec, SimTrace, TraceEvent, max_stretch

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
        instance = Instance(tuple(rows), name=str(inst_block.get("name", "")))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    jobs = instance.by_id
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

    # Read and replay the event stream in one pass.
    idle = (EventKind.IDLE_BEGIN, EventKind.IDLE_END)
    events = []
    segments = []
    completions = {}
    released = set()
    open_run = None
    last_t = None
    for where, row in _rows(record, "events", path, "events"):
        t = _parse_number(row.get("time"), ctx, where, "time")
        try:
            kind_ev = EventKind(_expect(row, "kind", str, where))
        except ValueError as exc:
            raise FileFormatError(f"{where}: unknown event kind") from exc
        jid = row.get("job")
        if kind_ev in idle:
            if jid is not None:
                raise FileFormatError(f"{where}: an idle event names job {jid!r}")
        elif kind_ev is EventKind.RELEASE:
            if _job_id(jid, jobs, where) in released:
                raise FileFormatError(f"{where}: job {jid} is released twice")
            released.add(jid)
        elif _job_id(jid, jobs, where) not in released:
            raise FileFormatError(f"{where}: job {jid} has an event before its release")
        events.append(TraceEvent(t, kind_ev, jid))
        if last_t is not None and t < last_t:
            raise FileFormatError(f"{path}: events go backward in time")
        last_t = t
        if kind_ev is EventKind.START:
            if open_run is not None:
                raise FileFormatError(f"{path}: start while job {open_run[0]} runs")
            if t < jobs[jid].release:
                raise FileFormatError(f"{where}: job {jid} starts before release")
            open_run = (jid, t)
        elif kind_ev in (EventKind.PREEMPT, EventKind.COMPLETE):
            if open_run is not None and open_run[0] == jid:
                if open_run[1] < t:
                    segments.append(Segment(jid, open_run[1], t, None))
                open_run = None
            elif kind_ev is EventKind.PREEMPT:
                raise FileFormatError(f"{path}: preempt of a job that is not running")
            if kind_ev is EventKind.COMPLETE:
                if jid in completions:
                    raise FileFormatError(f"{path}: job {jid} completes twice")
                completions[jid] = t
    if open_run is not None:
        raise FileFormatError(f"{path}: trace ends while job {open_run[0]} runs")

    trace = SimTrace(instance, spec, tuple(events), completions, {}, tuple(segments), None)
    trace.busy_time = busy = total_busy_time(trace)
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
    stretches = trace.stretches
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
    stored_worst = _parse_number(
        summary.get("max_stretch"), ctx, f"{path}: summary", "max_stretch"
    )
    if not check.close(stored_worst, max_stretch(trace)):
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
    return trace


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
