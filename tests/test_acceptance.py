"""Acceptance gate: ten analytic criteria at their stated tolerances.

Each test prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines alongside the pytest verdicts (failures surface the
line either way).
"""

import math
import random
import time

import numpy as np
import pytest

from rampsched.core import (
    DOUBLE,
    Instance,
    Job,
    PrecisionContext,
    completion_from,
    lazy_job,
    total_busy_time,
    work_in,
)
from rampsched.generators import (
    adaptive_adversary,
    gen_edd,
    gen_fifo,
    gen_lssf,
    gen_random_feasible,
    gen_srpt,
)
from rampsched.offline import (
    Feasibility,
    SsrQuery,
    brute_force_optimal,
    check_reduction,
    lrtb,
    reduce_ssr,
    validate_schedule,
)
from rampsched.online import (
    Policy,
    PolicySpec,
    max_stretch,
    missed_due_dates,
    simulate,
)

CTX = PrecisionContext(bits=128)


def report(num, label, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_lssf_cascade_reaches_sqrt_n_minus_1():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 10, 25, 50):
        trace = simulate(gen_lssf(n, CTX), PolicySpec(Policy.LSSF), CTX)
        expected = CTX.sqrt(n - 1)
        rel = float(abs(max_stretch(trace) - expected) / expected)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        "LSSF on the cascade family reaches stretch sqrt(n-1), rel tol 1e-6",
        worst <= 1e-6 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_srpt_starvation_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 16, 64, 256):
        trace = simulate(gen_srpt(n, DOUBLE), PolicySpec(Policy.SRPT), DOUBLE)
        for k in range(2, n + 1):
            err = abs(float(trace.completions[k]) - math.sqrt(k - 1))
            worst = max(worst, err)
        err = abs(float(trace.stretches[1]) - math.sqrt(n + 1) / 2)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        2,
        "SRPT starvation: small jobs finish at 1..sqrt(n-1), long job "
        "stretch sqrt(n+1)/2, tol 1e-9",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst abs err {worst:.2e}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def thrashing_corpus():
    """1000 random feasible instances simulated under both variants."""
    rows = []
    start = time.perf_counter()
    plain = PolicySpec(Policy.THRASHING, alpha=2)
    capped = PolicySpec(Policy.THRASHING, alpha=2, speed_cap_factor=2)
    for seed in range(1, 1001):
        inst = gen_random_feasible(1 + (seed % 20), seed, DOUBLE)
        rows.append(
            (inst, simulate(inst, plain, DOUBLE), simulate(inst, capped, DOUBLE))
        )
    return time.perf_counter() - start, rows


def test_criterion_03_thrashing_stretch_bounded_by_4(thrashing_corpus):
    elapsed, rows = thrashing_corpus
    worst = 0.0
    for _inst, plain, capped in rows:
        worst = max(worst, float(max_stretch(plain)), float(max_stretch(capped)))
    report(
        3,
        "Thrashing(alpha=2) max stretch <= 4 on 1000 random feasible "
        "instances, with and without speed cap 2",
        worst <= 4 + 1e-9 and elapsed < 30.0,
        f"worst stretch {worst:.6f}, corpus+sims {elapsed:.1f}s",
    )


def test_criterion_04_half_window_busy_bound(thrashing_corpus):
    _elapsed, rows = thrashing_corpus
    worst = -math.inf
    ok = True
    for inst, plain, capped in rows:
        lo, hi = inst.horizon
        cap_allowed = float(hi - lo) / 2 + 1e-9
        for trace in (plain, capped):
            # Every job's window lies inside [lo, hi], so all of its work counts.
            got = float(total_busy_time(trace, until=hi))
            worst = max(worst, got - float(hi - lo) / 2)
            ok = ok and got <= cap_allowed
    report(
        4,
        "busy time on window-contained jobs <= (d-r)/2 over the full "
        "horizon for every thrashing trace",
        ok,
        f"worst margin above bound {worst:.2e}",
    )


def test_criterion_05_backward_sweep_at_or_below_grid_search():
    start = time.perf_counter()
    ok = True
    detail = ""
    for i in range(200):
        inst = gen_random_feasible(i % 3 + 1, 2000 + i, DOUBLE)
        assert len({float(j.release) for j in inst.jobs}) == len(inst.jobs)
        sched, _ = lrtb(inst, DOUBLE)
        busy = float(total_busy_time(sched))
        prev_gap = None
        for k in range(6, 11):
            grid = float(brute_force_optimal(inst, 2**k, DOUBLE))
            if busy > grid + 1e-12:
                ok, detail = False, f"instance {i}: sweep {busy} > grid {grid} at k={k}"
                break
            gap = grid - busy
            if prev_gap is not None and gap > prev_gap + 1e-12:
                ok, detail = False, f"instance {i}: gap grew {prev_gap} -> {gap}"
                break
            prev_gap = gap
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        5,
        "backward sweep busy time <= brute-force grid optimum at every "
        "resolution 2^6..2^10, gap shrinking with resolution",
        ok and elapsed < 60.0,
        detail or f"200 instances, {elapsed:.1f}s",
    )


def test_criterion_06_equal_release_permutation_invariance():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = random.Random(6000 + trial)
        n = rng.randint(3, 6)
        dues = [rng.uniform(1, 8) for _ in range(n)]
        fracs = [rng.uniform(0.05, 0.4) for _ in range(n)]
        slopes = [rng.choice([0.5, 1.0, 2.0]) for _ in range(n)]

        def build(order):
            jobs = []
            for rank, k in enumerate(order, start=1):
                d = CTX.real(dues[k])
                m = CTX.real(slopes[k])
                w = CTX.real(fracs[k]) * m * d * d / 2
                jobs.append(lazy_job(rank, 0, d, w, slope=m))
            return Instance(tuple(jobs))

        base_order = list(range(n))
        for _ in range(60):
            sched, verdict = lrtb(build(base_order), CTX)
            if verdict.status is Feasibility.FEASIBLE:
                break
            fracs = [f * 3 / 4 for f in fracs]
        assert verdict.status is Feasibility.FEASIBLE
        busy0 = total_busy_time(sched)
        for _perm in range(3):
            order = base_order[:]
            rng.shuffle(order)
            sched2, verdict2 = lrtb(build(order), CTX)
            assert verdict2.status is Feasibility.FEASIBLE
            worst = max(worst, abs(float(total_busy_time(sched2) - busy0)))
    elapsed = time.perf_counter() - start
    report(
        6,
        "permuting jobs that share a release leaves total busy time "
        "unchanged to 1e-12 on 100 instances",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_07_surd_sum_verdicts_match_high_precision_oracle():
    start = time.perf_counter()
    oracle = PrecisionContext(bits=4 * CTX.bits)
    rng = random.Random(99)
    ok = True
    detail = ""
    for trial in range(100):
        n = rng.randint(1, 10)
        xs = tuple(rng.randint(1, 1000) for _ in range(n))
        total = sum(oracle.sqrt(x) for x in xs)
        threshold = max(1, int(math.floor(float(total))) + rng.choice([-1, 0, 1]))
        query = SsrQuery(xs, threshold)
        witness, verdict = check_reduction(query, CTX)
        expect = (
            Feasibility.FEASIBLE if total >= threshold else Feasibility.INFEASIBLE
        )
        if verdict.status is not expect:
            ok, detail = False, f"{query}: got {verdict.status}, oracle {expect}"
            break
        if verdict.status is Feasibility.FEASIBLE:
            inst = reduce_ssr(query, CTX)
            check = validate_schedule(
                inst, witness, CTX, require_due_dates=True
            )
            if not check.ok:
                ok, detail = False, f"{query}: witness invalid: {check.violations[:1]}"
                break
    _, square = check_reduction(SsrQuery((1, 4, 9), 6), CTX)
    if ok and not (square.status is Feasibility.FEASIBLE and square.margin == 0):
        ok, detail = False, "perfect-square boundary not resolved exactly"
    elapsed = time.perf_counter() - start
    report(
        7,
        "surd-sum verdicts match a 4x-precision oracle and carry valid "
        "witnesses; perfect-square ties resolve exactly",
        ok and elapsed < 10.0,
        detail or f"100 queries, {elapsed:.2f}s",
    )


def test_criterion_08_adversary_defeats_every_policy():
    start = time.perf_counter()
    ok = True
    detail = ""
    for kind in Policy:
        trace, _ = adaptive_adversary(PolicySpec(kind), CTX)
        _, verdict = lrtb(trace.instance, CTX)
        if not missed_due_dates(trace):
            ok, detail = False, f"{kind.value}: no due date missed"
            break
        if verdict.status is not Feasibility.FEASIBLE:
            ok, detail = False, f"{kind.value}: instance not certified feasible"
            break
    elapsed = time.perf_counter() - start
    report(
        8,
        "adaptive adversary forces a missed due date for all five "
        "policies on instances the sweep certifies feasible",
        ok and elapsed < 1.0,
        detail or f"{elapsed:.2f}s",
    )


def test_criterion_09_sliver_families_force_target_stretch():
    start = time.perf_counter()
    ok = True
    detail = ""
    for target in (10, 100, 1000):
        for gen, policy in ((gen_fifo, Policy.FIFO), (gen_edd, Policy.EDD)):
            inst = gen(target, CTX)
            _, verdict = lrtb(inst, CTX)
            if verdict.status is not Feasibility.FEASIBLE:
                ok = False
                detail = f"{policy.value} target {target}: instance infeasible"
                break
            observed = float(max_stretch(simulate(inst, PolicySpec(policy), CTX)))
            if observed < target:
                ok = False
                detail = f"{policy.value} target {target}: stretch {observed:.3f}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        9,
        "FIFO/EDD sliver families stay feasible while forcing the policy "
        "to stretch >= K for K in {10, 100, 1000}",
        ok and elapsed < 5.0,
        detail or f"{elapsed:.2f}s",
    )


def test_criterion_10_work_and_completion_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    count = 100_000
    r = rng.uniform(0, 10, count)
    base = np.where(rng.random(count) < 0.3, rng.uniform(0.1, 2, count), 0.0)
    slope = np.where(
        base > 0,
        np.where(rng.random(count) < 0.5, 0.0, rng.uniform(0.1, 3, count)),
        rng.uniform(0.1, 3, count),
    )
    a = r + rng.uniform(1e-3, 4, count)
    b = a + rng.uniform(0, 4, count)
    c = b + rng.uniform(0, 4, count)
    bad = 0
    for i in range(count):
        job = Job(1, r[i], r[i] + 25, 1, base[i], slope[i])
        wab = work_in(job, a[i], b[i])
        wbc = work_in(job, b[i], c[i])
        wac = work_in(job, a[i], c[i])
        if abs(wab + wbc - wac) > 1e-9 * max(1.0, abs(wac)):
            bad += 1
        finish = completion_from(job, a[i], wab, DOUBLE)
        if abs(finish - b[i]) > 1e-9 * max(1.0, b[i]):
            bad += 1
        if wab > wac + 1e-12:
            bad += 1
    elapsed = time.perf_counter() - start
    report(
        10,
        "work integral additivity, completion inversion, and work "
        "monotonicity over 1e5 random cases at 1e-9 rel tol",
        bad == 0 and elapsed < 10.0,
        f"{bad} violations, {elapsed:.1f}s",
    )
