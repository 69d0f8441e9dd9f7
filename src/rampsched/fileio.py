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
prints an instance's record when it has no --out.  In a schedule file,
a segment's "work" is work_in over its span.

Every loader reads the file as UTF-8 and requires a JSON object.
load_instance parses its job table one column at a time, at every
precision.  When any value fails, a scan in row order parses the table
and names the first bad row and field; load_trace parses a trace's job
rows the same way.  It builds its online.SimTrace with the one
constructor simulate uses, whose replay of the events defines a valid
log.  Its jobs carry their windows with work 0 at unit slope, since a
trace file stores neither work nor speeds.  A trace has one precision,
the one it ran at: save_trace writes it only at trace.ctx, and
load_trace replays the events once, at the file's precision_bits,
requires the stored summary to be exactly the one trace_to_record
writes for that replay, and returns that replay, the run the file
records.  The reader's precision only refuses a file written above it,
with a retry hint.  Any other malformed file is a FileFormatError
naming the path, the JSON location of a syntax error, or the offending
field.
"""

from __future__ import annotations

import json
from itertools import islice, repeat

from .core import (
    Instance,
    Job,
    Policy,
    PrecisionContext,
    Schedule,
    retry_hint,
    total_busy_time,
    work_in,
)

# Neither offline nor online is imported here: `solve` writes schedules
# without loading the simulator, and `gen` writes instances with
# neither.  The trace functions import online's names themselves.

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Malformed instance/trace/schedule file."""


def _read_json(path):
    """The JSON object a UTF-8 file holds; FileFormatError for anything else."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(record, dict):
        raise FileFormatError(f"{path}: expected a JSON object at the top level")
    return record


# Rows per write when a file's lists and maps are streamed.
SLICE = 256

# The JSON text of a free-text value: names, provenance, status and
# kind strings.  Numbers come from ctx.format, whose text needs no escaping.
# load_trace compares summary fields by it.
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
            message += f"; file written at {bits} bits; " + retry_hint(bits)
        raise FileFormatError(message) from exc


# A job row's numeric fields and their defaults, in the order a row is parsed.
_JOB_FIELDS = (("release", None), ("due", None), ("work", None), ("base", "0"), ("slope", "1"))


def _jobs(record, ctx, path):
    """The Jobs of a file record's job table.

    An instance's table is its "jobs".  A trace's is its instance
    block's, whose rows give only windows: release and due are read,
    with work 0, base 0 and slope 1.  The table is parsed column by
    column.  If any value fails, a scan in row order parses it again
    and raises for the first bad row and field.
    """
    if record["kind"] == "trace":
        table, label, fields = record["instance"], "instance.jobs", _JOB_FIELDS[:2]
        fixed = (0, 0, 1)
    else:
        table, label, fields, fixed = record, "jobs", _JOB_FIELDS, ()
    rows = _expect(table, "jobs", list, path)
    if rows and all(type(row) is dict for row in rows):
        ids = [row.get("id") for row in rows]
        columns = [ctx.parse_all([row.get(field, default) for row in rows])
                   for field, default in fields]
        # type(), not isinstance(): JSON true would pass as id 1.
        if None not in columns and all(type(jid) is int for jid in ids):
            try:
                return list(map(Job, ids, *columns, *map(repeat, fixed)))
            except ValueError:
                pass
    jobs = []
    for where, row in _rows(table, "jobs", path, label):
        jid = _expect(row, "id", int, where)
        values = [_parse_number(row.get(field, default), ctx, where, field)
                  for field, default in fields]
        jobs.append(_job(record, ctx, where, jid, *values, *fixed))
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
                "work": ctx.format(work_in(instance.by_id[s.job], s.start, s.end)),
            }
            for s in schedule.segments
        ],
    }


def save_schedule(instance, schedule, verdict, path, ctx):
    """Write schedule_to_record's content as compact JSON."""
    fmt = ctx.format
    jobs = instance.by_id
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
            f'"work":"{fmt(work_in(jobs[s.job], s.start, s.end))}"}}'
            for s in schedule.segments
        ))
        write("]}\n")


# --- traces ------------------------------------------------------------------


def _own_precision(trace, ctx: PrecisionContext):
    """ValueError unless ctx is trace.ctx; the writers call it before writing."""
    if ctx.bits != trace.ctx.bits:
        raise ValueError(f"the trace ran at {trace.ctx.bits} bits; cannot write it at {ctx.bits}")


def trace_to_record(trace, ctx: PrecisionContext) -> dict:
    """The trace file's record of an online.SimTrace; ctx must be trace.ctx."""
    _own_precision(trace, ctx)
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
        "summary": _summary(trace),
    }


def _summary(trace) -> dict:
    """A trace file's summary block: a function of the run at trace.ctx."""
    from .online import max_stretch, missed_due_dates

    ctx = trace.ctx
    completions, stretches = trace.completions, trace.stretches
    return {
        "completions": {str(jid): ctx.format(completions[jid]) for jid in sorted(completions)},
        "stretches": {str(jid): ctx.format(stretches[jid]) for jid in sorted(stretches)},
        "max_stretch": ctx.format(max_stretch(trace)),
        "busy_time": ctx.format(trace.busy_time),
        "missed_due_dates": missed_due_dates(trace),
    }


def save_trace(trace, path, ctx: PrecisionContext):
    """Write trace_to_record's content as compact JSON; ctx must be trace.ctx."""
    from .online import EventKind, max_stretch, missed_due_dates

    _own_precision(trace, ctx)
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
            f'}},"max_stretch":"{fmt(max_stretch(trace))}",'
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


def load_trace(path, ctx: PrecisionContext):
    """The online.SimTrace of the run a trace file records.

    Its instance holds each job row's id, release and due date, with
    work 0 at unit slope: a trace file stores no work or speeds, so the
    work of its segments (spans) is work_in on the simulated instance.
    The rest is SimTrace's replay of the events, the one simulate's runs go
    through, at the file's precision_bits, which becomes the trace's ctx:
    saved at it, the trace gives back the same bytes.

    FileFormatError, prefixed with the path, rejects a file that is not a
    UTF-8 JSON object, an event log no simulation writes (SimTrace's
    ValueError), and a stored summary that is not, as JSON text, the one
    trace_to_record writes for the replay: a summary is a function of the
    events at the precision that wrote it, so it is checked exactly.  ctx
    only refuses a file written above its precision, with a retry hint.
    """
    record = _read_json(path)
    _check_schema(record, path, "trace")
    bits = _expect(record, "precision_bits", int, path)
    if bits > ctx.bits:
        raise FileFormatError(
            f"{path}: trace precision above the reader's {ctx.bits} bits; "
            f"file written at {bits} bits; " + retry_hint(bits)
        )
    if bits < 24:
        raise FileFormatError(f"{path}: precision_bits {bits} is below 24")
    trace = _replay(record, ctx if bits == ctx.bits else PrecisionContext(bits), path)
    stored = _expect(record, "summary", dict, path)
    # As JSON text, so that JSON true never passes for job 1.
    for field, value in _summary(trace).items():
        if _encode(stored.get(field)) != _encode(value):
            raise FileFormatError(
                f"{path}: summary {field} disagrees with the events at {bits} bits"
            )
    return trace


def _replay(record, ctx: PrecisionContext, path):
    """The SimTrace of a trace record's jobs, policy and events at ctx.

    Every row is parsed before SimTrace checks the log, so a bad literal
    is reported before a defect of the log in an earlier event.
    """
    from .online import EventKind, PolicySpec, SimTrace, TraceEvent

    inst_block = _expect(record, "instance", dict, path)
    rows = _jobs(record, ctx, path)
    if not rows:
        raise FileFormatError(f"{path}: trace instance has no jobs")
    try:
        instance = Instance(tuple(rows), name=str(inst_block.get("name", "")))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    pol = _expect(record, "policy", dict, path)
    try:
        kind = Policy(_expect(pol, "kind", str, f"{path}: policy"))
    except ValueError as exc:
        raise FileFormatError(f"{path}: unknown policy kind") from exc
    alpha = _parse_number(pol.get("alpha", "2"), ctx, f"{path}: policy", "alpha")
    cap = pol.get("speed_cap_factor")
    if cap is not None:
        cap = _parse_number(cap, ctx, f"{path}: policy", "cap")
    events = []
    for where, row in _rows(record, "events", path, "events"):
        t = _parse_number(row.get("time"), ctx, where, "time")
        try:
            kind_ev = EventKind(_expect(row, "kind", str, where))
        except ValueError as exc:
            raise FileFormatError(f"{where}: unknown event kind") from exc
        events.append(TraceEvent(t, kind_ev, row.get("job")))
    try:
        return SimTrace(instance, PolicySpec(kind, alpha, cap), events, ctx)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


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
