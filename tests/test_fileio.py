"""JSON instance/schedule/trace files and the plot CSV writer."""

import json
import tracemalloc

import pytest

from rampsched import (
    DOUBLE,
    Instance,
    PrecisionContext,
    Schedule,
    lazy_job,
    nonlazy_job,
)
from rampsched.fileio import (
    SLICE,
    FileFormatError,
    instance_to_record,
    load_instance,
    load_trace,
    save_instance,
    save_schedule,
    save_trace,
    schedule_to_record,
    trace_to_record,
    write_plot_data,
)
from rampsched.generators import gen_lssf, gen_random_feasible, gen_srpt
from rampsched.offline import Feasibility, FeasibilityVerdict, lrtb
from rampsched.online import (
    EventKind,
    Policy,
    PolicySpec,
    TraceEvent,
    max_stretch,
    missed_due_dates,
    simulate,
)

CTX = PrecisionContext(128)


def test_instance_round_trip_is_exact(tmp_path):
    inst = gen_random_feasible(4, 3, CTX)
    path = tmp_path / "inst.json"
    save_instance(inst, path, CTX)
    again = load_instance(path, CTX)
    assert again.jobs == inst.jobs
    assert again.name == inst.name
    # Saving the reloaded instance reproduces the file byte for byte.
    path2 = tmp_path / "inst2.json"
    save_instance(again, path2, CTX)
    assert path.read_bytes() == path2.read_bytes()


def test_instance_defaults_and_mixed_speeds(tmp_path):
    inst = Instance((lazy_job(1, 0, 2, 1), nonlazy_job(2, 0, 3, 1, base=2)))
    path = tmp_path / "mixed.json"
    save_instance(inst, path, CTX)
    again = load_instance(path, CTX)
    assert again.by_id[2].base == 2
    assert again.by_id[2].slope == 0
    # base and slope fall back to a pure unit ramp when omitted.
    record = json.loads(path.read_text())
    for row in record["jobs"]:
        row.pop("base")
        row.pop("slope")
    path.write_text(json.dumps(record))
    bare = load_instance(path, CTX)
    assert bare.by_id[1].base == 0
    assert bare.by_id[1].slope == 1


def _write(path, record):
    path.write_text(json.dumps(record))
    return path


# Files that hold no JSON object, each with the error its loader must give.
NOT_JSON_OBJECTS = (
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000, "JSON nested too deeply"),
    (b"5", "expected a JSON object"),
    (b"null", "expected a JSON object"),
    (b'"schema_version"', "expected a JSON object"),
)


def _refuses_non_objects(load, path):
    for content, message in NOT_JSON_OBJECTS:
        path.write_bytes(content)
        with pytest.raises(FileFormatError) as caught:
            load(path, CTX)
        assert str(caught.value).startswith(f"{path}: {message}"), content[:8]


def test_load_instance_rejects_malformed_files(tmp_path):
    ok = {
        "schema_version": 1,
        "kind": "instance",
        "jobs": [{"id": 1, "release": "0", "due": "2", "work": "1"}],
    }
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="line"):
        load_instance(path, CTX)
    with pytest.raises(FileFormatError, match="missing.json"):
        load_instance(tmp_path / "missing.json", CTX)
    _refuses_non_objects(load_instance, path)

    with pytest.raises(FileFormatError, match="schema_version"):
        load_instance(_write(path, {**ok, "schema_version": 99}), CTX)
    with pytest.raises(FileFormatError, match="expected a instance"):
        load_instance(_write(path, {**ok, "kind": "trace"}), CTX)
    with pytest.raises(FileFormatError, match="no jobs"):
        load_instance(_write(path, {**ok, "jobs": []}), CTX)

    row = dict(ok["jobs"][0])
    del row["work"]
    with pytest.raises(FileFormatError, match="work"):
        load_instance(_write(path, {**ok, "jobs": [row]}), CTX)
    row = dict(ok["jobs"][0])
    del row["id"]
    with pytest.raises(FileFormatError, match="missing field 'id'"):
        load_instance(_write(path, {**ok, "jobs": [row]}), CTX)

    backwards = {"id": 1, "release": "2", "due": "1", "work": "1"}
    with pytest.raises(FileFormatError, match="jobs\\[0\\]"):
        load_instance(_write(path, {**ok, "jobs": [backwards]}), CTX)

    for field in ("slope", "base"):
        negative = {**ok["jobs"][0], field: "-1"}
        with pytest.raises(FileFormatError, match="jobs\\[0\\]: speed coefficients"):
            load_instance(_write(path, {**ok, "jobs": [negative]}), CTX)

    twice = {**ok, "jobs": [ok["jobs"][0], ok["jobs"][0]]}
    with pytest.raises(FileFormatError, match="duplicate"):
        load_instance(_write(path, twice), CTX)

    inf = {"id": 1, "release": "0", "due": "inf", "work": "1"}
    with pytest.raises(FileFormatError):
        load_instance(_write(path, {**ok, "jobs": [inf]}), CTX)

    with pytest.raises(FileFormatError, match="'id'"):
        load_instance(_write(path, {**ok, "jobs": [{**ok["jobs"][0], "id": True}]}), CTX)
    with pytest.raises(FileFormatError, match="schema_version"):
        load_instance(_write(path, {**ok, "schema_version": True}), CTX)


def test_schedule_file_carries_verdict_and_segments(tmp_path):
    inst = Instance((lazy_job(1, 0, 2, 1),))
    schedule, verdict = lrtb(inst, CTX)
    path = tmp_path / "sched.json"
    save_schedule(inst, schedule, verdict, path, CTX)
    record = json.loads(path.read_text())
    assert record["kind"] == "schedule"
    assert record["verdict"]["status"] == "feasible"
    assert len(record["segments"]) == 1
    busy = CTX.parse(record["busy_time"])
    assert CTX.close(busy, 2 - CTX.sqrt(2))


def _ship_trace(ctx=CTX, policy=Policy.EDD):
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, ctx.real("0.375"))))
    return simulate(inst, PolicySpec(policy), ctx)


def test_trace_round_trip_replays_the_events(tmp_path):
    trace = _ship_trace()
    path = tmp_path / "trace.json"
    save_trace(trace, path, CTX)
    rec = load_trace(path, CTX)
    assert rec.policy.kind is Policy.EDD
    assert rec.policy.speed_cap_factor is None
    assert missed_due_dates(rec) == []
    assert CTX.close(rec.busy_time, trace.busy_time)
    for jid, done in trace.completions.items():
        assert CTX.close(rec.completions[jid], done)
        assert CTX.close(rec.stretches[jid], trace.stretches[jid])
    assert CTX.close(max_stretch(rec), max(trace.stretches.values()))


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_trace_round_trips_are_exact(tmp_path, bits):
    # A trace loads, at the precision that wrote it and at each higher one,
    # as the run it records: the writer's numbers, at the writer's precision.
    ctx = PrecisionContext(bits)
    readers = [PrecisionContext(b) for b in (53, 64, 128) if b >= bits]
    path, again = tmp_path / "trace.json", tmp_path / "again.json"
    instances = [_ship_trace(ctx).instance, gen_srpt(6, ctx)]
    instances += [gen_random_feasible(12, seed, ctx) for seed in (1, 2, 3)]
    for inst in instances:
        for policy in Policy:
            for cap in (None, ctx.real(2), ctx.real("0.5")):
                trace = simulate(inst, PolicySpec(policy, speed_cap_factor=cap), ctx)
                save_trace(trace, path, ctx)
                for reader in readers:
                    rec = load_trace(path, reader)
                    assert rec.ctx.bits == bits
                    assert rec.events == trace.events
                    assert rec.segments == trace.segments
                    assert rec.completions == trace.completions
                    assert rec.stretches == trace.stretches
                    assert rec.busy_time == trace.busy_time
                    assert max_stretch(rec) == max(trace.stretches.values())
                    # The loaded trace saves back to the same bytes and plots the same.
                    save_trace(rec, again, ctx)
                    assert again.read_bytes() == path.read_bytes()
                    write_plot_data(trace, tmp_path / "sim.csv", ctx)
                    write_plot_data(rec, tmp_path / "loaded.csv", ctx)
                    for suffix in (".csv", ".gantt.csv"):
                        assert ((tmp_path / f"loaded{suffix}").read_bytes()
                                == (tmp_path / f"sim{suffix}").read_bytes())


def test_trace_records_missed_due_dates(tmp_path):
    trace = _ship_trace(policy=Policy.FIFO)  # the sliver job finishes late
    path = tmp_path / "late.json"
    save_trace(trace, path, CTX)
    assert missed_due_dates(load_trace(path, CTX)) == [2]


def test_load_trace_rejects_files_that_are_not_json_objects(tmp_path):
    _refuses_non_objects(load_trace, tmp_path / "bad.json")


def test_tampered_summaries_are_rejected(tmp_path):
    trace = _ship_trace()
    path = tmp_path / "trace.json"

    def corrupt(edit, match=None):
        record = trace_to_record(trace, CTX)
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(FileFormatError, match=match):
            load_trace(path, CTX)

    corrupt(lambda r: r["summary"].__setitem__("busy_time", "99"))
    corrupt(lambda r: r["summary"]["completions"].__setitem__("1", "3.5"))
    corrupt(lambda r: r["summary"]["stretches"].__setitem__("2", "0.1"))
    # Doubling a start makes two jobs run at once.
    corrupt(lambda r: r["events"].insert(2, dict(r["events"][1])))
    # Reversing time in the log.
    corrupt(lambda r: r["events"].__setitem__(0, {**r["events"][0], "time": "9"}))
    corrupt(lambda r: r["events"].__setitem__(1, {**r["events"][1], "kind": "warp"}))
    corrupt(lambda r: r["policy"].__setitem__("kind", "lifo"))
    corrupt(lambda r: r["policy"].__setitem__("alpha", "0.5"), "idle threshold below 1")
    # A job window that closes as it opens.
    def shut_window(record):
        job = record["instance"]["jobs"][0]
        job["due"] = job["release"]

    corrupt(shut_window)
    # Dropping the final completion leaves a job running at the end.
    corrupt(lambda r: r["events"].pop())
    # Summary keys that name no job of the trace, or miss one.
    corrupt(lambda r: r["summary"]["stretches"].__setitem__("x", "1"))
    corrupt(lambda r: r["summary"]["completions"].__setitem__("9", "1"))
    corrupt(lambda r: r["summary"]["stretches"].__setitem__("9", "1"))
    corrupt(lambda r: r["summary"]["completions"].pop("2"))
    corrupt(lambda r: r["summary"]["missed_due_dates"].append(True))
    corrupt(lambda r: r["events"].__setitem__(1, {**r["events"][1], "job": 9}))
    corrupt(lambda r: r["events"].append(dict(r["events"][-1])))
    # Rows that are not objects.
    corrupt(lambda r: r["events"].append(5))
    corrupt(lambda r: r["instance"]["jobs"].append(5))
    # Summary figures the events contradict; no job finishes near its due date.
    corrupt(lambda r: r["summary"].__setitem__("max_stretch", "9"))
    corrupt(lambda r: r["summary"].__setitem__("missed_due_dates", [1]))
    # JSON booleans are not integers.
    corrupt(lambda r: r["instance"]["jobs"][0].__setitem__("id", True))
    corrupt(lambda r: r.__setitem__("schema_version", True))
    # A job table with a row twice, or with no rows.
    corrupt(lambda r: r["instance"]["jobs"].append(r["instance"]["jobs"][0]), "duplicate")
    corrupt(lambda r: r["instance"]["jobs"].clear(), "no jobs")
    # Events 3 and 5 preempt job 1 at t=1 and complete job 2 at about 1.87.
    corrupt(lambda r: r["events"][3].__setitem__("job", 2), "not running")
    corrupt(lambda r: r["instance"]["jobs"][1].__setitem__("release", "1.9"), "before release")
    # Event logs that no simulation writes: a run of no job (its busy time
    # counted), an idle event that names a job, a release that names none,
    # a start before the job's release event, and one before its release time.
    def run_nobody(record):
        end = record["events"][-1]["time"]
        record["events"] += [{"time": end, "kind": "start", "job": None},
                             {"time": "9", "kind": "preempt", "job": None}]
        busy = CTX.parse(record["summary"]["busy_time"]) + 9 - CTX.parse(end)
        record["summary"]["busy_time"] = CTX.format(busy)

    corrupt(run_nobody, "unknown job None")
    corrupt(lambda r: r["events"].insert(1, {"time": "0", "kind": "idle-begin", "job": 1}),
            "idle event")
    corrupt(lambda r: r["events"][0].__setitem__("job", None), "unknown job None")
    corrupt(lambda r: r["events"].insert(4, r["events"].pop(2)), "before its release")

    def start_early(record):
        record["instance"]["jobs"][0]["release"] = "0.5"
        done = CTX.parse(record["summary"]["completions"]["1"])
        record["summary"]["stretches"]["1"] = CTX.format((done - CTX.real("0.5")) / 3.5)

    corrupt(start_early, "starts before release")
    # Event 2 releases job 2 at t=1, its row's release; simulate writes both from one number.
    corrupt(lambda r: r["events"][2].__setitem__("time", "0.5"), "not at its row's release")


def test_replay_errors_name_their_event(tmp_path):
    trace = _ship_trace()
    path = tmp_path / "trace.json"

    def message(edit):
        record = trace_to_record(trace, CTX)
        edit(record["events"])
        path.write_text(json.dumps(record))
        with pytest.raises(FileFormatError) as info:
            load_trace(path, CTX)
        return str(info.value)

    # Events 1-7: start 1 at 0, release 2, preempt 1 and start 2 at 1,
    # complete 2, start 1, complete 1.
    assert message(lambda e: e[4].__setitem__("time", "0.5")) == (
        f"{path}: events[4]: events go backward in time")
    assert message(lambda e: e.insert(2, dict(e[1]))) == (
        f"{path}: events[2]: start while job 1 runs")
    assert message(lambda e: e[3].__setitem__("job", 2)) == (
        f"{path}: events[3]: preempt of a job that is not running")
    assert message(lambda e: e.append(dict(e[7]))) == (
        f"{path}: events[8]: job 1 completes twice")


@pytest.mark.parametrize("bits", [53, 128])
def test_summaries_are_checked_exactly(tmp_path, bits):
    # A summary figure moved by 2^-(bits-4) relative, well inside the
    # tolerance of 2^-(bits-16), no longer matches the replay.
    ctx = PrecisionContext(bits)
    trace = _ship_trace(ctx)
    path = tmp_path / "trace.json"
    nudge = 1 + ctx.real(2) ** -(bits - 4)

    def nudged(block, key):
        record = trace_to_record(trace, ctx)
        block(record)[key] = ctx.format(ctx.parse(block(record)[key]) * nudge)
        path.write_text(json.dumps(record))
        with pytest.raises(FileFormatError, match="disagrees with the events"):
            load_trace(path, ctx)

    nudged(lambda r: r["summary"], "busy_time")
    nudged(lambda r: r["summary"]["completions"], "1")
    nudged(lambda r: r["summary"]["stretches"], "2")
    nudged(lambda r: r["summary"], "max_stretch")


def test_trace_precision_bits_is_checked(tmp_path):
    path = tmp_path / "trace.json"
    cases = {
        None: "missing field 'precision_bits'",
        True: "'precision_bits' has the wrong type",
        23: "precision_bits 23 is below 24",
        # Above the reader's precision: a trace is never checked below its own.
        129: "file written at 129 bits; retry with --precision 129",
    }
    for bits, match in cases.items():
        record = trace_to_record(_ship_trace(), CTX)
        if bits is None:
            del record["precision_bits"]
        else:
            record["precision_bits"] = bits
        path.write_text(json.dumps(record))
        with pytest.raises(FileFormatError, match=match):
            load_trace(path, CTX)


def test_plot_data_layout(tmp_path):
    trace = _ship_trace()
    path = tmp_path / "plot.csv"
    gantt = write_plot_data(trace, path, CTX)
    assert gantt == str(tmp_path / "plot.gantt.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "job,release,due,completion,stretch"
    assert len(lines) == 1 + len(trace.instance.jobs)
    glines = (tmp_path / "plot.gantt.csv").read_text().strip().splitlines()
    assert glines[0] == "job,start,end"
    assert len(glines) == 1 + len(trace.segments)
    # A name without .csv gets the suffix appended instead of spliced.
    other = write_plot_data(trace, tmp_path / "plain", CTX)
    assert other.endswith("plain.gantt.csv")


def test_trace_survives_precision_change(tmp_path):
    # A trace written at double precision is read at 128 bits as the
    # double-precision run it records, checked once at double precision.
    trace = _ship_trace(ctx=DOUBLE)
    path = tmp_path / "d.json"
    save_trace(trace, path, DOUBLE)
    rec = load_trace(path, PrecisionContext(128))
    assert rec.ctx.bits == 53
    assert rec.completions == trace.completions
    assert missed_due_dates(rec) == []


def test_a_loaded_trace_is_the_run_it_records(tmp_path):
    # Read at 128 bits, a 53-bit FIFO trace of the cascade reports its own
    # summary's max stretch (200966585713929.6), not a second replay's
    # (200805957575918.7), and saves back at 53 bits to the same bytes.
    trace = simulate(gen_lssf(200, DOUBLE), PolicySpec(Policy.FIFO), DOUBLE)
    path, again = tmp_path / "t.json", tmp_path / "again.json"
    save_trace(trace, path, DOUBLE)
    rec = load_trace(path, PrecisionContext(128))
    summary = json.loads(path.read_text())["summary"]
    assert DOUBLE.format(max_stretch(rec)) == summary["max_stretch"]
    assert rec.events == trace.events
    save_trace(rec, again, DOUBLE)
    assert again.read_bytes() == path.read_bytes()


def test_a_trace_is_written_only_at_its_own_precision(tmp_path):
    # The summary holds the run's figures at 53 bits; written at 128, the
    # file would claim them at 128 and its own loader would refuse it.
    trace = simulate(gen_random_feasible(12, 1, DOUBLE), PolicySpec(Policy.SRPT), DOUBLE)
    path = tmp_path / "t.json"
    above = PrecisionContext(128)
    with pytest.raises(ValueError, match="ran at 53 bits; cannot write it at 128"):
        save_trace(trace, path, above)
    assert not path.exists()
    with pytest.raises(ValueError, match="ran at 53 bits; cannot write it at 128"):
        trace_to_record(trace, above)


# --- the file writer ---------------------------------------------------------


@pytest.mark.parametrize("bits", [53, 128])
def test_written_files_load_back_to_their_records(tmp_path, bits):
    ctx = PrecisionContext(bits)
    inst = gen_srpt(300, ctx)  # more jobs, segments and events than one slice
    schedule, verdict = lrtb(inst, ctx)
    trace = simulate(inst, PolicySpec(Policy.THRASHING), ctx)
    files = {
        "inst.json": (instance_to_record(inst, ctx), save_instance, (inst,)),
        "sched.json": (
            schedule_to_record(inst, schedule, verdict, ctx),
            save_schedule,
            (inst, schedule, verdict),
        ),
        "trace.json": (trace_to_record(trace, ctx), save_trace, (trace,)),
    }
    for name, (record, save, args) in files.items():
        path = tmp_path / name
        save(*args, path, ctx)
        text = path.read_text()
        assert json.loads(text) == record, name
        assert text.count("\n") == 1 and text.endswith("}\n"), name  # compact
    assert load_instance(tmp_path / "inst.json", ctx).jobs == inst.jobs
    rec = load_trace(tmp_path / "trace.json", ctx)
    assert rec.completions == trace.completions
    assert rec.busy_time == trace.busy_time


def test_writer_edge_cases_load_back(tmp_path):
    # Empty segments and deficits.
    inst = Instance((lazy_job(1, 0, 2, 1),))
    _, verdict = lrtb(inst, CTX)
    path = tmp_path / "empty.json"
    save_schedule(inst, Schedule(()), verdict, path, CTX)
    record = json.loads(path.read_text())
    assert record == schedule_to_record(inst, Schedule(()), verdict, CTX)
    assert record["segments"] == [] and record["verdict"]["deficits"] == {}


def _compact(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("bits", [53, 128])
def test_writer_text_is_the_records_json(tmp_path, bits):
    ctx = PrecisionContext(bits)
    path = tmp_path / "out.json"

    def same_text(save, args, record):
        save(*args, path, ctx)
        assert path.read_text() == _compact(record)

    # Free text that needs escaping, a job released at -0.0, and a speed cap.
    name = 'a "quoted" \\ name\twith\x01control, caf\u00e9 \u2603 \U0001f600'
    jobs = (lazy_job(1, -0.0, 2, 1), lazy_job(2, 0, 3, ctx.real("0.375")),
            nonlazy_job(3, 1, 6, 2, base=ctx.real("0.5")))
    inst = Instance(jobs, name=name, provenance=name[::-1])
    same_text(save_instance, (inst,), instance_to_record(inst, ctx))
    ramps = Instance(jobs[:2], name=name)  # the sweep takes pure ramps only
    schedule, verdict = lrtb(ramps, ctx)
    same_text(save_schedule, (ramps, schedule, verdict),
              schedule_to_record(ramps, schedule, verdict, ctx))
    capped = simulate(inst, PolicySpec(Policy.SRPT, speed_cap_factor=ctx.real("1.5")), ctx)
    same_text(save_trace, (capped,), trace_to_record(capped, ctx))
    # Thrashing idles until a job's stretch reaches alpha: events with job null.
    idle = simulate(Instance((lazy_job(1, 0, 2, 1), lazy_job(2, 5, 9, 1))),
                    PolicySpec(Policy.THRASHING), ctx)
    assert {EventKind.IDLE_BEGIN, EventKind.IDLE_END} <= {e.kind for e in idle.events}
    same_text(save_trace, (idle,), trace_to_record(idle, ctx))

    # Tables of 0, 1, SLICE, SLICE + 1 and several slices of rows.
    big = gen_srpt(300, ctx)
    trace = simulate(big, PolicySpec(Policy.THRASHING), ctx)
    events, segments = trace.events, trace.segments
    assert len(events) > 3 * SLICE and len(segments) > SLICE + 1
    for k in (0, 1, SLICE, SLICE + 1, len(big.jobs), len(segments), len(events)):
        part = Instance(big.jobs[:k], name=big.name)
        same_text(save_instance, (part,), instance_to_record(part, ctx))
        sched = Schedule(segments[:k])
        deficits = {s.job: s.length for s in sched.segments}
        status = Feasibility.INFEASIBLE if deficits else Feasibility.FEASIBLE
        verdict = FeasibilityVerdict(status, deficits=deficits,
                                     margin=None if k % 2 else ctx.real(k))
        same_text(save_schedule, (big, sched, verdict),
                  schedule_to_record(big, sched, verdict, ctx))
        trace.events = events[:k]
        same_text(save_trace, (trace,), trace_to_record(trace, ctx))


def test_trace_writer_formats_each_time_it_is_given(tmp_path):
    # Two events at equal times that print differently, -0.0 then 0.0:
    # the writer reuses a time's text only for the very same object.
    trace = simulate(Instance((lazy_job(1, -0.0, 2, 1),)), PolicySpec(Policy.FIFO), DOUBLE)
    first = trace.events[0]
    assert first.time == 0 and str(first.time) == "-0.0"
    trace.events = (first, TraceEvent(0.0, EventKind.START, 1), *trace.events[2:])
    record = trace_to_record(trace, DOUBLE)
    assert [e["time"] for e in record["events"][:2]] == ["-0.0", "0.0"]
    path = tmp_path / "t.json"
    save_trace(trace, path, DOUBLE)
    assert path.read_text() == _compact(record)


def test_writer_memory_stays_below_the_file_size(tmp_path):
    # Building a record, or its whole text, holds several times the file.
    ctx = PrecisionContext(53)
    trace = simulate(gen_srpt(2000, ctx), PolicySpec(Policy.THRASHING), ctx)
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        save_trace(trace, path, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"peak {peak} bytes for a {size}-byte file"
    assert path.read_text() == _compact(trace_to_record(trace, ctx))


# --- loader error messages ---------------------------------------------------


def _rows(n):
    return [{"id": i, "release": str(i), "due": str(i + 2), "work": "1"} for i in range(1, n + 1)]


@pytest.mark.parametrize("bits", [53, 128])
def test_loader_names_the_first_bad_row_and_field(tmp_path, bits):
    ctx = PrecisionContext(bits)
    path = tmp_path / "inst.json"

    def message(rows):
        record = {"schema_version": 1, "kind": "instance", "jobs": rows}
        with pytest.raises(FileFormatError) as info:
            load_instance(_write(path, record), ctx)
        return str(info.value)

    # Bad fields in rows 3 and 1 (the later row's field comes first in a row).
    rows = _rows(5)
    rows[3]["release"] = "x"
    rows[1]["slope"] = "1_0"
    assert message(rows) == f"{path}: jobs[1]: field 'slope': could not convert string to float: '1_0'"
    # One row with a bad due date and a bad slope reports the due date.
    rows = _rows(5)
    rows[2].update(due="nan", slope=" 1")
    assert message(rows) == f"{path}: jobs[2]: field 'due': non-finite numeric literal 'nan'"
    rows = _rows(3)
    rows[1]["id"] = True
    assert message(rows) == f"{path}: jobs[1]: field 'id' has the wrong type"
    rows = _rows(3)
    rows[2]["work"] = 1
    assert message(rows) == f"{path}: jobs[2]: field 'work' must be a decimal string, got int"
    rows = _rows(3)
    rows[1]["due"] = "1"
    assert message(rows) == f"{path}: jobs[1]: job 2: release must precede due date"
    rows = _rows(3)
    rows[2] = [rows[2]]
    assert message(rows) == f"{path}: jobs[2]: expected an object"
    # Leading or trailing whitespace, and other scripts' digits, are refused.
    for text in ("2 ", "\t2", "\u0662"):
        rows = _rows(3)
        rows[0]["due"] = text
        assert message(rows) == f"{path}: jobs[0]: field 'due': could not convert string to float: {text!r}"


@pytest.mark.parametrize("bits", [53, 128])
def test_trace_loader_names_the_first_bad_job_row_and_field(tmp_path, bits):
    # A trace's job rows go through the instance loader's parser, which
    # reads only their windows.
    ctx = PrecisionContext(bits)
    path = tmp_path / "trace.json"

    def message(rows):
        record = trace_to_record(_ship_trace(ctx), ctx)
        record["instance"]["jobs"] = rows
        with pytest.raises(FileFormatError) as info:
            load_trace(_write(path, record), ctx)
        return str(info.value)

    rows = _rows(5)
    rows[3]["release"] = "x"
    rows[1]["due"] = "1_0"
    assert message(rows) == f"{path}: instance.jobs[1]: field 'due': could not convert string to float: '1_0'"
    rows = _rows(5)
    rows[2].update(due="nan", release=" 1")
    assert message(rows) == f"{path}: instance.jobs[2]: field 'release': could not convert string to float: ' 1'"
    rows = _rows(3)
    rows[2]["release"] = 3
    assert message(rows) == f"{path}: instance.jobs[2]: field 'release' must be a decimal string, got int"
    rows = _rows(3)
    rows[1]["id"] = True
    assert message(rows) == f"{path}: instance.jobs[1]: field 'id' has the wrong type"
    rows = _rows(3)
    rows[1]["due"] = "1"
    assert message(rows) == f"{path}: instance.jobs[1]: job 2: release must precede due date"
    rows = _rows(3)
    rows[2] = [rows[2]]
    assert message(rows) == f"{path}: instance.jobs[2]: expected an object"
    for text in ("2 ", "\t2", "\u0662"):
        rows = _rows(3)
        rows[0]["due"] = text
        assert message(rows) == (
            f"{path}: instance.jobs[0]: field 'due': could not convert string to float: {text!r}")
    assert message([]) == f"{path}: trace instance has no jobs"
    # Only the windows are read: a row's work, base and slope are not.
    record = trace_to_record(_ship_trace(ctx), ctx)
    record["instance"]["jobs"][0].update(work="x", base=True, slope="-1")
    assert load_trace(_write(path, record), ctx).instance.by_id[1].work == 0
