"""JSON instance/schedule/trace files and the plot CSV writer."""

import json
import tracemalloc

import pytest

from rampsched import DOUBLE, Instance, PrecisionContext, Schedule, lazy_job, nonlazy_job
from rampsched.fileio import (
    SLICE,
    FileFormatError,
    _write_json,
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
from rampsched.generators import gen_random_feasible, gen_srpt
from rampsched.offline import lrtb
from rampsched.online import Policy, PolicySpec, simulate

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
    assert again.by_id[2].speed.base == 2
    assert again.by_id[2].speed.slope == 0
    # base and slope fall back to a pure unit ramp when omitted.
    record = json.loads(path.read_text())
    for row in record["jobs"]:
        row.pop("base")
        row.pop("slope")
    path.write_text(json.dumps(record))
    bare = load_instance(path, CTX)
    assert bare.by_id[1].speed.base == 0
    assert bare.by_id[1].speed.slope == 1


def _write(path, record):
    path.write_text(json.dumps(record))
    return path


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
    assert rec.missed == []
    assert CTX.close(rec.busy_time, trace.busy_time)
    for jid, done in trace.completions.items():
        assert CTX.close(rec.completions[jid], done)
        assert CTX.close(rec.stretches[jid], trace.stretches[jid])
    assert CTX.close(rec.max_stretch, max(trace.stretches.values()))


def test_trace_records_missed_due_dates(tmp_path):
    trace = _ship_trace(policy=Policy.FIFO)  # the sliver job finishes late
    path = tmp_path / "late.json"
    save_trace(trace, path, CTX)
    assert load_trace(path, CTX).missed == [2]


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
    # A trace written at double precision still replays cleanly when
    # reloaded at higher precision: tolerances absorb the quantization.
    trace = _ship_trace(ctx=DOUBLE)
    path = tmp_path / "d.json"
    save_trace(trace, path, DOUBLE)
    rec = load_trace(path, PrecisionContext(128))
    assert rec.missed == []


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
    # Lists and maps of one slice, one slice plus one, and several slices,
    # at the top level and one level down.
    sizes = (0, 1, SLICE, SLICE + 1, 3 * SLICE + 5)
    record = {
        "kind": "edges",
        "none": None,
        **{f"list{n}": [{"i": i, "s": str(i)} for i in range(n)] for n in sizes},
        **{f"map{n}": {str(i): [i] for i in range(n)} for n in sizes},
        "nested": {
            "list": list(range(SLICE + 1)),
            "map": {str(i): i for i in range(2 * SLICE)},
            "deeper": {"list": list(range(SLICE + 1)), "text": "\u00e9\"\n"},
        },
    }
    path = tmp_path / "edges.json"
    _write_json(record, path)
    assert json.loads(path.read_text()) == record


def test_writer_memory_stays_below_the_file_size(tmp_path):
    # Encoding a whole record in one call holds all of its text at once.
    ctx = PrecisionContext(53)
    trace = simulate(gen_srpt(2000, ctx), PolicySpec(Policy.THRASHING), ctx)
    record = trace_to_record(trace, ctx)
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        _write_json(record, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"peak {peak} bytes for a {size}-byte file"
    assert json.loads(path.read_text()) == record
