"""End-to-end tests for the rampsched command line.

Each test drives main() with an argv list, the same entry console_scripts
uses, and checks the exit code plus the text contract other tooling would
scrape (status lines, CSV headers, generated files).
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rampsched.cli import main
from rampsched.core import Instance, Job, PrecisionContext, lazy_job, nonlazy_job
from rampsched.fileio import load_instance, load_trace, save_instance

CTX = PrecisionContext(bits=128)


def run(capsys, *argv):
    """Invoke the CLI, normalizing return-code and SystemExit paths."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, jobs, name="case"):
    path = tmp_path / f"{name}.json"
    save_instance(Instance(jobs, name=name), path, CTX)
    return str(path)


# --- solve ---------------------------------------------------------------


def test_solve_feasible_cascade(tmp_path, capsys):
    inst = str(tmp_path / "cascade.json")
    code, out, _ = run(capsys, "gen", "lssf", "--n", "6", "--out", inst)
    assert code == 0
    assert f"instance written to {inst}" in out

    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    assert "status: feasible" in out
    assert "margin: 0" in out
    assert "busy time:" in out


def test_solve_writes_schedule_file(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    sched = tmp_path / "plan.json"
    code, out, _ = run(capsys, "solve", inst, "--out", str(sched))
    assert code == 0
    assert f"schedule written to {sched}" in out
    record = json.loads(sched.read_text())
    assert record["kind"] == "schedule"
    assert record["verdict"]["status"] == "feasible"
    assert len(record["segments"]) == 1


def test_solve_infeasible_reports_deficit(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 1, 1),))
    out_path = tmp_path / "x.json"
    code, out, _ = run(capsys, "solve", inst, "--out", str(out_path))
    assert code == 1
    assert "status: infeasible" in out
    assert "job 1 deficit: 0.5" in out
    # The partial best-effort schedule is still written, flagged infeasible.
    record = json.loads(out_path.read_text())
    assert record["verdict"]["status"] == "infeasible"


@pytest.mark.parametrize(
    "jobs,dropped",
    [
        ((lazy_job(1, 1, 3, 3), lazy_job(2, 0, 1, CTX.real("0.1"))), 1),
        ((lazy_job(1, 0, 2, 2), lazy_job(2, 0, 2, CTX.real("0.1"))), 2),
    ],
    ids=["release-at-other-due", "shared-release"],
)
def test_solve_flags_work_left_at_a_release(tmp_path, capsys, jobs, dropped):
    code, out, _ = run(capsys, "solve", write_instance(tmp_path, jobs))
    assert code == 1
    assert "status: infeasible" in out
    assert f"job {dropped} deficit:" in out


def test_solve_hairline_is_indeterminate_at_double(tmp_path, capsys):
    job = lazy_job(1, 0, 2, CTX.real("2.0000000000001"))
    inst = write_instance(tmp_path, (job,))
    code, out, _ = run(capsys, "solve", inst, "--precision", "53")
    assert code == 2
    assert "status: indeterminate" in out
    assert "retry with --precision 106" in out

    code, out, _ = run(capsys, "solve", inst, "--precision", "128")
    assert code == 1
    assert "status: infeasible" in out


def test_solve_rejects_plain_nonlazy_instance(tmp_path, capsys):
    inst = write_instance(tmp_path, (nonlazy_job(1, 1, 3, 1),))
    code, _, err = run(capsys, "solve", inst)
    assert code == 64
    assert "constant-speed" in err or "nonlazy" in err or "speed" in err


def test_solve_recovers_reduction_instances(tmp_path, capsys):
    inst = str(tmp_path / "ssr.json")
    code, _, _ = run(capsys, "gen", "reduction", "--xs", "2,3", "--threshold", "3",
                     "--out", inst)
    assert code == 0
    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    assert "status: feasible" in out
    # The same jobs under ids 10, 20, 30 are not the reduction, and the
    # sweep cannot take the constant-speed filler.
    jobs = tuple(
        Job(10 * j.id, j.release, j.due, j.work, j.speed)
        for j in load_instance(inst, CTX).jobs
    )
    renumbered = write_instance(tmp_path, jobs, name="renumbered")
    out_path = tmp_path / "sched.json"
    code, out, err = run(capsys, "solve", renumbered, "--out", str(out_path))
    assert code == 64
    assert "job 30 has a nonzero base speed" in err
    assert not out_path.exists()


def test_solve_infeasible_reduction_has_no_witness(tmp_path, capsys):
    inst = str(tmp_path / "ssr.json")
    run(capsys, "gen", "reduction", "--xs", "2,3", "--threshold", "4", "--out", inst)
    out_path = tmp_path / "sched.json"
    code, out, err = run(capsys, "solve", inst, "--out", str(out_path))
    assert code == 1
    assert "status: infeasible" in out
    assert "no schedule to write" in err
    assert not out_path.exists()


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "instance",')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 64
    assert "line" in err


def test_low_precision_load_names_the_precision_the_file_needs(tmp_path, capsys):
    # Job 2's window is narrower than a double's spacing at 1.
    record = {
        "schema_version": 1,
        "kind": "instance",
        "precision_bits": 128,
        "jobs": [
            {"id": 1, "release": "0", "due": "2", "work": "1"},
            {"id": 2, "release": "1", "due": "1.00000000000000000001", "work": "1e-45"},
        ],
    }
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(record))
    code, _, _ = run(capsys, "solve", str(path))
    assert code == 0
    code, _, err = run(capsys, "solve", str(path), "--precision", "53")
    assert code == 64
    assert "jobs[1]: job 2: release must precede due date" in err
    assert "file written at 128 bits; retry with --precision 128" in err
    # More precision cannot mend a negative work, so no hint is given.
    record["jobs"][1] = {"id": 2, "release": "1", "due": "2", "work": "-1"}
    path.write_text(json.dumps(record))
    code, _, err = run(capsys, "solve", str(path), "--precision", "53")
    assert code == 64
    assert "jobs[1]: job 2: negative work" in err
    assert "retry" not in err


def test_precision_below_floor_is_usage_error(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    code, _, err = run(capsys, "solve", inst, "--precision", "16")
    assert code == 64
    assert "24" in err


# --- simulate ------------------------------------------------------------


def test_simulate_writes_trace_and_plots(tmp_path, capsys):
    inst = str(tmp_path / "cascade.json")
    run(capsys, "gen", "lssf", "--n", "4", "--out", inst)
    trace_path = tmp_path / "trace.json"
    plot_path = tmp_path / "plot.csv"
    code, out, _ = run(
        capsys, "simulate", inst, "--policy", "lssf",
        "--trace-out", str(trace_path), "--plot-out", str(plot_path),
    )
    assert code == 0
    assert "max stretch:" in out
    # The cascade family forces stretch sqrt(n-1) > 1 on this policy, so
    # the late jobs show up in the missed list.
    assert "missed due dates: jobs" in out
    assert "busy fraction of horizon:" in out

    trace = load_trace(str(trace_path), CTX)
    assert trace.policy.kind.value == "lssf"
    assert trace.missed

    header = plot_path.read_text().splitlines()[0]
    assert header == "job,release,due,completion,stretch"
    gantt = tmp_path / "plot.gantt.csv"
    assert gantt.read_text().splitlines()[0] == "job,start,end"


def test_simulate_reports_missed_jobs(tmp_path, capsys):
    jobs = (lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, CTX.real("0.375")))
    inst = write_instance(tmp_path, jobs)
    code, out, _ = run(capsys, "simulate", inst, "--policy", "fifo")
    assert code == 0
    assert "missed due dates: jobs 2" in out


def test_simulate_rejects_unknown_policy(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    code, _, err = run(capsys, "simulate", inst, "--policy", "lifo")
    assert code == 64
    assert "invalid choice" in err


def test_simulate_rejects_bad_cap(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    code, _, err = run(capsys, "simulate", inst, "--policy", "edd", "--cap", "0")
    assert code == 64
    assert "cap" in err.lower()


def test_simulate_parses_numbers_at_the_working_precision(tmp_path, capsys):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(
        capsys, "simulate", inst, "--policy", "thrashing", "--alpha", "2.1",
        "--trace-out", str(trace_path),
    )
    assert code == 0
    record = json.loads(trace_path.read_text())
    assert record["policy"]["alpha"] == CTX.format(CTX.parse("2.1"))
    for bad in (["--alpha", "two"], ["--cap", "nan"]):
        code, _, err = run(capsys, "simulate", inst, "--policy", "thrashing", *bad)
        assert code == 64, bad
        assert "Traceback" not in err


# --- gen -----------------------------------------------------------------


def test_gen_random_prints_instance_json(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "3", "--seed", "7")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "instance"
    assert len(record["jobs"]) == 3


def test_gen_adversary_trace(tmp_path, capsys):
    trace_path = tmp_path / "adv-trace.json"
    inst = tmp_path / "adv.json"
    code, out, _ = run(
        capsys, "gen", "adversary", "--policy", "srpt",
        "--out", str(inst), "--trace-out", str(trace_path),
    )
    assert code == 0
    assert "branch:" in out
    assert "policy missed a due date: True" in out
    trace = load_trace(str(trace_path), CTX)
    assert trace.missed
    assert load_instance(str(inst), CTX).jobs


def test_gen_parses_the_target_at_the_working_precision(capsys):
    code, out, _ = run(capsys, "gen", "fifo", "--target", "1.1")
    assert code == 0
    assert json.loads(out)["name"].endswith(CTX.format(CTX.parse("1.1")))


def test_gen_rejects_tiny_cascade(capsys):
    code, _, err = run(capsys, "gen", "lssf", "--n", "2")
    assert code == 64
    assert err.strip()


# --- check ---------------------------------------------------------------


def test_check_exact_boundary_is_feasible(capsys):
    code, out, _ = run(capsys, "check", "--xs", "1,4,9", "--threshold", "6")
    assert code == 0
    assert "query: sqrt(1) + sqrt(4) + sqrt(9) >= 6" in out
    assert "status: feasible" in out
    assert "margin: 0" in out


def test_check_infeasible(capsys):
    code, out, _ = run(capsys, "check", "--xs", "2,3", "--threshold", "4")
    assert code == 1
    assert "status: infeasible" in out


def test_check_near_tie_indeterminate_at_low_precision(capsys):
    code, out, _ = run(
        capsys, "check", "--xs", "1000001", "--threshold", "1000",
        "--precision", "24",
    )
    assert code == 2
    assert "status: indeterminate" in out
    assert "retry with --precision 48" in out
    # The hinted precision decides the query.
    code, out, _ = run(
        capsys, "check", "--xs", "1000001", "--threshold", "1000",
        "--precision", "48",
    )
    assert code == 0
    assert "status: feasible" in out


def test_check_decides_a_query_whose_reduction_needs_more_bits(capsys):
    # gen reduction refuses this query at 53 bits; the verdict needs no instance.
    code, out, _ = run(
        capsys, "check", "--xs", "200000002,3", "--threshold", "5",
        "--precision", "53",
    )
    assert code == 0
    assert "status: feasible" in out


def test_check_rejects_bad_integers(capsys):
    code, _, err = run(capsys, "check", "--xs", "2,x", "--threshold", "3")
    assert code == 64
    assert "integers" in err


# --- bench ---------------------------------------------------------------


def test_bench_lssf_csv(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "lssf", "--jobs", "6")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n", "expected", "observed", "rel_err"]
    assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6"]
    assert all(float(r[3]) < 1e-9 for r in rows[1:])


def test_bench_thrashing_to_file(tmp_path, capsys):
    out_path = tmp_path / "thrash.csv"
    code, _, _ = run(
        capsys, "bench", "--suite", "thrashing", "--seeds", "1..3",
        "--jobs", "5", "--precision", "53", "--out", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["seed", "n", "variant", "max_stretch", "busy_time"]
    assert len(rows) == 1 + 3 * 2
    assert {r[2] for r in rows[1:]} == {"alpha2", "alpha2-cap2"}


def test_bench_policies_covers_every_policy(capsys):
    code, out, _ = run(
        capsys, "bench", "--suite", "policies", "--seeds", "1,2",
        "--jobs", "4", "--precision", "53",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["seed", "n", "policy", "max_stretch", "busy_time", "missed"]
    assert len(rows) == 1 + 2 * 5
    assert {r[2] for r in rows[1:]} == {"fifo", "edd", "srpt", "lssf", "thrashing"}


def test_bench_rejects_backwards_seed_range(capsys):
    code, _, err = run(capsys, "bench", "--suite", "policies", "--seeds", "5..1")
    assert code == 64
    assert "seed range" in err


_HUGE = "1" + "7" * 400

USAGE_ERRORS = {
    ("bench", "--suite", "policies", "--seeds", "1", "--jobs", "0"):
        "--jobs must be at least 1",
    ("bench", "--suite", "thrashing", "--seeds", "1", "--jobs", "-3"):
        "--jobs must be at least 1",
    ("gen", "fifo", "--target", "inf"): "non-finite",
    ("gen", "fifo", "--target", "1e400"): "does not fit in a double",
    ("gen", "lssf", "--n", "5", "--rationalize", "inf"): "non-finite",
    ("gen", "srpt", "--n", "5", "--rationalize", "1e400"): "out of range",
    ("gen", "lssf", "--n", "5", "--rationalize", "0"): "must be positive",
    ("gen", "srpt", "--n", "5", "--rationalize", "-1"): "must be positive",
    ("gen", "fifo", "--target", "1e20", "--precision", "53"):
        "target stretch 1e+20 needs a sliver window too narrow for 53 bits",
    ("gen", "edd", "--target", "1e17", "--precision", "53"):
        "target stretch 1e+17 needs a sliver window too narrow for 53 bits",
    # 2 * work of the first surd, x^2 + 3x + 4, is a 56-bit integer.
    ("gen", "reduction", "--xs", "200000002,3", "--threshold", "5", "--precision", "53"):
        "needs 56 bits to be exact, not 53; retry with --precision 56",
    # Integers past a double's range: 401 digits.
    ("gen", "reduction", "--xs", _HUGE, "--threshold", "1", "--precision", "53"):
        "retry with --precision 2660",
    ("gen", "reduction", "--xs", "2,3", "--threshold", _HUGE, "--precision", "53"):
        "retry with --precision 1330",
    ("check", "--xs", _HUGE, "--threshold", "1", "--precision", "53"):
        "retry with --precision 1330",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_bad_counts_and_targets_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert USAGE_ERRORS[argv] in err
    assert "Traceback" not in err


# --- output errors -------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "lssf", "--n", "3", "--out", "{missing}"),
        ("solve", "{inst}", "--out", "{missing}"),
        ("simulate", "{inst}", "--policy", "fifo", "--trace-out", "{missing}"),
        ("simulate", "{inst}", "--policy", "fifo", "--plot-out", "{missing}"),
        ("bench", "--suite", "lssf", "--jobs", "3", "--out", "{missing}"),
    ],
)
def test_output_into_a_missing_directory_is_a_usage_error(tmp_path, capsys, argv):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1),))
    missing = str(tmp_path / "no-such-dir" / "out")
    code, _, err = run(capsys, *(a.format(inst=inst, missing=missing) for a in argv))
    assert code == 64
    assert "No such file or directory" in err
    assert "Traceback" not in err


def test_closed_stdout_ends_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from rampsched.cli import main; sys.exit(main())"
    # Far more output than a pipe buffers, so the writer is still running.
    argv = ["gen", "lssf", "--n", "2000", "--precision", "53"]
    with subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert not err


def _thrashing_run(tmp_path, command, bits, alpha, code=64):
    """`simulate` of a starvation instance, or `gen adversary`, under thrashing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    cli = [sys.executable, "-m", "rampsched.cli"]
    if command == "simulate":
        inst = tmp_path / "starve5.json"
        gen = [*cli, "gen", "srpt", "--n", "5", "--precision", "53", "--out", str(inst)]
        assert subprocess.run(gen, env=env, capture_output=True).returncode == 0
        argv = ["simulate", str(inst)]
    else:
        argv = ["gen", "adversary"]
    argv += ["--policy", "thrashing", "--alpha", alpha, "--precision", bits]
    proc = subprocess.run(
        [*cli, *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == code, proc.stderr
    if code == 64:
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("command", ["simulate", "gen adversary"])
def test_non_finite_event_time_is_a_usage_error(tmp_path, command):
    # At t = 2e200 a job's ramp squares to inf at 53 bits, its finish
    # time comes out nan, and an unchecked event loop never ends.
    proc = _thrashing_run(tmp_path, command, "53", "1e200")
    assert "not finite" in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "gen adversary"])
def test_finish_lost_to_rounding_is_a_usage_error(tmp_path, command):
    # At 128 bits the ramp stays finite, but each finish time, ~1e-200
    # after its start at ~2e200, rounds onto the start: no work could run.
    proc = _thrashing_run(tmp_path, command, "128", "1e200")
    assert "rounds onto its start at 128 bits" in proc.stderr


@pytest.mark.parametrize("alpha", ["1e2", "1e5", "1e7"])
def test_finish_off_its_remaining_work_is_a_usage_error(tmp_path, alpha):
    # At t ~ 2·alpha a finish time a few ulps after its start carries
    # work far from the job's remaining work at 53 bits.
    proc = _thrashing_run(tmp_path, "simulate", "53", alpha)
    assert "holds work" in proc.stderr and "at 53 bits" in proc.stderr


def test_small_threshold_run_still_succeeds(tmp_path):
    _thrashing_run(tmp_path, "simulate", "53", "2", code=0)


# --- imports -------------------------------------------------------------


def test_cli_import_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import rampsched.cli, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _loaded_modules(*argv):
    """Names of the modules a CLI run imports, from -X importtime."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rampsched.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # Each importtime line ends in "| <module name>".
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_double_precision_run_does_not_load_mpmath():
    modules = _loaded_modules("gen", "lssf", "--n", "3", "--precision", "53")
    assert "rampsched.core" in modules
    assert not any(name.startswith("mpmath") for name in modules)


def test_simulate_does_not_load_the_generators(tmp_path):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1), lazy_job(2, 1, 3, 1)))
    for argv, runs, skips in (
        (["simulate", inst, "--policy", "srpt", "--trace-out", str(tmp_path / "t.json")],
         "rampsched.online", "rampsched.offline"),
        (["solve", inst, "--out", str(tmp_path / "s.json")],
         "rampsched.offline", "rampsched.online"),
    ):
        modules = _loaded_modules(*argv)
        assert runs in modules, argv[0]
        assert skips not in modules, argv[0]
        assert "rampsched.generators" not in modules, argv[0]
        assert "csv" not in modules


def test_closed_form_families_load_neither_decider():
    for family in ("lssf", "srpt"):
        modules = _loaded_modules("gen", family, "--n", "4", "--precision", "53")
        assert "rampsched.generators" in modules
        assert "rampsched.offline" not in modules, family
        assert "rampsched.online" not in modules, family


def test_commands_do_not_load_dataclasses(tmp_path):
    inst = write_instance(tmp_path, (lazy_job(1, 0, 2, 1), lazy_job(2, 1, 3, 1)))
    for argv in (
        ["solve", inst],
        ["simulate", inst, "--policy", "lssf"],
        ["gen", "lssf", "--n", "3", "--precision", "53"],
        ["gen", "random", "--n", "3", "--seed", "1", "--precision", "53"],
        ["check", "--xs", "2,3", "--threshold", "3"],
    ):
        modules = _loaded_modules(*argv)
        assert "rampsched.core" in modules
        assert "dataclasses" not in modules, argv[:2]
        assert "inspect" not in modules, argv[:2]
