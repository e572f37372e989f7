"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Pinned conventions (see also the README): spectrum-family instances are
the rotation-equivalent diagonal form started from the transformed ones
vector; family means average condition numbers {1e4, 1e5, 1e6} with seeds
1..10 unless a criterion pins a single condition number.
"""

import math
import time

import numpy as np
import pytest

from specgrad.bench import performance_profile
from specgrad.box_solver import BoxRunConfig, solve_box
from specgrad.generators import (
    LaplaceSpec,
    SpectrumSpec,
    gen_diag_problem,
    gen_laplace3d,
    gen_rotated_equivalent,
)
from specgrad.problem import QuadraticProblem
from specgrad.qp_engine import StrategySpec, run
from specgrad.stepsize import (
    StepsizeMemory,
    bar_alpha_direct,
    bar_alpha_general,
    p_stepsize,
)
from specgrad.suite import make_suite

from reference import aopt_stepsize, bb_pair, sd_stepsize

KAPPAS = (1e4, 1e5, 1e6)
SEEDS = tuple(range(1, 11))
FAMILIES = ("SET1", "SET2", "SET3", "SET4", "SET5")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def set_instance(family: str, kappa: float, seed: int):
    return gen_rotated_equivalent(SpectrumSpec(family, 1000, kappa, seed), np.ones(1000))


def family_mean(family: str, spec: StrategySpec, eps: float, monitor=None) -> float:
    iters = []
    for kappa in KAPPAS:
        for seed in SEEDS:
            p, x1 = set_instance(family, kappa, seed)
            tr = run(p, x1, spec, eps=eps, max_iter=20000)
            iters.append(tr.iterations if tr.termination == "gradient_tol" else 20000)
            if monitor is not None:
                monitor(family, kappa, seed, tr)
    return float(np.mean(iters))


# ----------------------------------------------------------------- C1-C3


@pytest.fixture(scope="module")
def aopt_reference_run():
    problem = gen_diag_problem(SpectrumSpec("TP1", 1000, 1000.0, 42))
    t0 = time.perf_counter()
    trace = run(problem, np.ones(1000), StrategySpec("AOPT"), eps=1e-14, max_iter=320,
                retain_gradients=True)
    elapsed = time.perf_counter() - t0
    return problem, trace, elapsed


def test_criterion_01_spectral_limit(aopt_reference_run):
    problem, trace, elapsed = aopt_reference_run
    lam_n = float(problem.hessian.max())
    best = math.inf
    for k in range(2, 101):
        bar = bar_alpha_direct(trace.gradients[k - 2], trace.gradients[k - 1], problem)
        best = min(best, abs(bar * lam_n - 1.0))
    ok = best <= 0.05 and elapsed < 1.0
    report(1, ok, f"min_k<=100 |bar_alpha*lam_n - 1| = {best:.4f} (<= 0.05), run {elapsed:.2f}s (< 1s)")


def test_criterion_02_aopt_limit(aopt_reference_run):
    problem, trace, elapsed = aopt_reference_run
    lam1 = float(problem.hessian.min())
    lam_n = float(problem.hessian.max())
    worst = 0.0
    for k in range(200, 301):
        a = aopt_stepsize(trace.gradients[k - 1], problem)
        worst = max(worst, abs(a * (lam1 + lam_n) / 2.0 - 1.0))
    ok = worst <= 0.01 and elapsed < 1.0
    report(2, ok, f"max_k in [200,300] |aopt*(lam1+lam_n)/2 - 1| = {worst:.4f} (<= 0.01), run {elapsed:.2f}s (< 1s)")


def test_criterion_03_slow_companion_and_component_limits(aopt_reference_run):
    problem, trace, _ = aopt_reference_run
    lam1 = float(problem.hessian.min())
    lam_n = float(problem.hessian.max())
    from specgrad.stepsize import hat_alpha_direct

    hat_close = 0
    for k in range(2, 101):
        hat = hat_alpha_direct(trace.gradients[k - 2], trace.gradients[k - 1], problem)
        if abs(hat * lam1 - 1.0) <= 0.05:
            hat_close += 1

    c1 = (lam1 + 3 * lam_n) / (4.0 * (lam1 + lam_n))
    c2 = (3 * lam1 + lam_n) / (4.0 * (lam1 + lam_n))
    g_prev = trace.gradients[298] / np.linalg.norm(trace.gradients[298])
    g_cur = trace.gradients[299] / np.linalg.norm(trace.gradients[299])
    diff_err = abs(np.linalg.norm(g_prev - g_cur) / 2.0 - math.sqrt(c2))
    sum_err = abs(np.linalg.norm(g_prev + g_cur) / 2.0 - math.sqrt(c1))
    ok = hat_close == 0 and diff_err <= 0.02 and sum_err <= 0.02
    report(
        3,
        ok,
        f"companion quotient near 1/lam1 for {hat_close} of k<=100 (must be 0); "
        f"at k=300 |normalized diff/2 - sqrt(c2)| = {diff_err:.4f}, "
        f"|normalized sum/2 - sqrt(c1)| = {sum_err:.4f} (<= 0.02)",
    )


# -------------------------------------------------------------------- C4


def test_criterion_04_schedule_band_tp1():
    t0 = time.perf_counter()
    means = {}
    for method, target in (("NEWS0", 636.3), ("NEWS", 581.3)):
        iters = []
        for seed in SEEDS:
            p = gen_diag_problem(SpectrumSpec("TP1", 1000, 1e4, seed))
            tr = run(p, np.ones(1000), StrategySpec(method, h=10, s=30), eps=1e-9)
            iters.append(tr.iterations)
        means[method] = (float(np.mean(iters)), target)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    parts = []
    for method, (mean, target) in means.items():
        in_band = 0.6 * target <= mean <= 1.4 * target
        ok = ok and in_band
        parts.append(f"{method}(10,30): {mean:.1f} vs {target} (band +-40%)")
    report(4, ok, "; ".join(parts) + f"; total {elapsed:.1f}s (< 30s)")


# ----------------------------------------------------------- C5, C6, C10


class _MonotoneMonitor:
    def __init__(self):
        self.violations = 0
        self.news2_set5_increases = 0

    def check_monotone(self, family, kappa, seed, tr):
        df = np.diff(tr.f)
        if np.any(df > 1e-12 * np.abs(tr.f[:-1])):
            self.violations += 1

    def check_news2(self, family, kappa, seed, tr):
        if family == "SET5":
            df = np.diff(tr.f)
            if np.any(df > 1e-12 * np.abs(tr.f[:-1])):
                self.news2_set5_increases += 1


@pytest.fixture(scope="module")
def set_benchmark():
    monitor = _MonotoneMonitor()
    data = {"monitor": monitor}
    data["news_set1"] = family_mean("SET1", StrategySpec("NEWS", h=20, s=100), 1e-12,
                                    monitor.check_monotone)
    data["sdc_set1"] = family_mean("SET1", StrategySpec("SDC", h=8, s=6), 1e-12)
    dy = {f: family_mean(f, StrategySpec("DY"), 1e-12, monitor.check_monotone) for f in FAMILIES}
    news2 = {f: family_mean(f, StrategySpec("NEWS2", h=10, s=100), 1e-12, monitor.check_news2)
             for f in FAMILIES}
    abb = {f: family_mean(f, StrategySpec("ABBMIN2"), 1e-12) for f in FAMILIES}
    data["dy"] = dy
    data["news2"] = news2
    data["abb"] = abb
    return data


def test_criterion_05_set1_ordering_and_bands(set_benchmark):
    news = set_benchmark["news_set1"]
    dy = set_benchmark["dy"]["SET1"]
    sdc = set_benchmark["sdc_set1"]
    checks = [
        ("NEWS(20,100) < DY", news < dy),
        ("NEWS(20,100) < SDC(8,6)", news < sdc),
        ("NEWS in band of 1111.0", 0.6 * 1111.0 <= news <= 1.4 * 1111.0),
        ("DY in band of 7419.6", 0.6 * 7419.6 <= dy <= 1.4 * 7419.6),
        ("SDC in band of 5113.0", 0.6 * 5113.0 <= sdc <= 1.4 * 5113.0),
    ]
    ok = all(flag for _, flag in checks)
    report(5, ok, f"means NEWS={news:.1f} DY={dy:.1f} SDC={sdc:.1f}; " +
           "; ".join(f"{name}: {'ok' if flag else 'VIOLATED'}" for name, flag in checks))


def test_criterion_06_totals_ordering(set_benchmark):
    news2_total = sum(set_benchmark["news2"].values())
    dy_total = sum(set_benchmark["dy"].values())
    abb_total = sum(set_benchmark["abb"].values())
    ok = news2_total < dy_total and news2_total < abb_total
    report(
        6,
        ok,
        f"totals across SET1-5 at 1e-12: NEWS2(10,100)={news2_total:.1f}, DY={dy_total:.1f}, "
        f"ABBMIN2={abb_total:.1f} (paper 10022.4 / 23748.1 / 13395.2); "
        f"NEWS2<DY: {news2_total < dy_total}, NEWS2<ABB: {news2_total < abb_total}",
    )


# -------------------------------------------------------------------- C7


def laplace_instances(problem, N):
    """The problem itself, the N x N x N Laplacian, then one copy per seed
    1..16 with every component of b moved by 1 ulp, up or down by a fair
    coin. The copies are stencil problems, like the generated one.

    BB-type and cyclic iterations are chaotic in rounding (Fletcher, "On the
    Barzilai-Borwein method", 2005): a count from one run moves with the
    BLAS thread count alone, so the bands are applied to the median over
    these instances.
    """
    yield problem
    for seed in range(1, 17):
        down = np.random.default_rng(seed).random(problem.dim) < 0.5
        b = np.nextafter(problem.b, np.where(down, -np.inf, np.inf))
        yield QuadraticProblem.laplace3d(N, b)


def test_criterion_07_laplace_bands():
    problem, _ = gen_laplace3d(LaplaceSpec("A", 60))
    x1 = np.zeros(problem.dim)
    counts = {"DY": [], "NEWS": []}
    elapsed = None
    for p in laplace_instances(problem, 60):
        t0 = time.perf_counter()
        counts["DY"].append(run(p, x1, StrategySpec("DY"), eps=1e-6, max_iter=20000).iterations)
        counts["NEWS"].append(
            run(p, x1, StrategySpec("NEWS", h=10, s=80), eps=1e-6, max_iter=20000).iterations)
        if elapsed is None:
            elapsed = time.perf_counter() - t0
    dy = float(np.median(counts["DY"]))
    news = float(np.median(counts["NEWS"]))
    dy_ok = 0.8 * 249 <= dy <= 1.2 * 249
    news_ok = 0.75 * 197 <= news <= 1.25 * 197
    ok = dy_ok and news_ok and elapsed < 60.0
    spread = {m: f"min {min(c)} / median {np.median(c):g} / max {max(c)}" for m, c in counts.items()}
    report(
        7,
        ok,
        f"Laplace(A) N=60 eps=1e-6 over {len(counts['DY'])} instances (b and 16 copies moved by 1 ulp): "
        f"DY {spread['DY']} vs 249 +-20% ({'ok' if dy_ok else 'VIOLATED'}); "
        f"NEWS(10,80) {spread['NEWS']} vs 197 +-25% ({'ok' if news_ok else 'VIOLATED'}); "
        f"unperturbed pair runtime {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------- C8, C10


@pytest.fixture(scope="module")
def news_family_runs():
    methods = ("NEWS0", "NEWS", "NEWS2", "NEWS3", "NEWS4")
    pool = {m: ([], []) for m in methods}
    caps = 0
    nonneg_slopes = 0
    news_monotone_violations = 0
    for family in FAMILIES:
        for seed in SEEDS:
            p, x1 = set_instance(family, 1e4, seed)
            for method in methods:
                tr = run(p, x1, StrategySpec(method, h=10, s=30), eps=1e-12, max_iter=20000)
                if tr.termination != "gradient_tol":
                    caps += 1
                    continue
                if method in ("NEWS0", "NEWS"):
                    df = np.diff(tr.f)
                    if np.any(df > 1e-12 * np.abs(tr.f[:-1])):
                        news_monotone_violations += 1
                record = np.minimum.accumulate(tr.gnorm / tr.gnorm[0])
                K = len(record)
                start = max(1, K // 5)
                xs = np.arange(start, K) / K
                ys = np.log(record[start:])
                if np.polyfit(xs, ys, 1)[0] >= 0.0:
                    nonneg_slopes += 1
                pool[method][0].append(xs)
                pool[method][1].append(ys)
    correlations = {}
    for method, (xs, ys) in pool.items():
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        correlations[method] = float(np.corrcoef(x, y)[0, 1])
    return {
        "caps": caps,
        "nonneg_slopes": nonneg_slopes,
        "correlations": correlations,
        "news_monotone_violations": news_monotone_violations,
    }


def test_criterion_08_convergence_cap_and_envelope(news_family_runs):
    caps = news_family_runs["caps"]
    nonneg = news_family_runs["nonneg_slopes"]
    corrs = news_family_runs["correlations"]
    ok = caps == 0 and nonneg == 0 and all(r <= -0.95 for r in corrs.values())
    report(
        8,
        ok,
        f"cap misses={caps} (must be 0); nonneg envelope slopes={nonneg} (must be 0); "
        "pooled tail correlations: "
        + ", ".join(f"{m}={r:.3f}" for m, r in corrs.items())
        + " (each <= -0.95)",
    )


def test_criterion_10_monotonicity(set_benchmark, news_family_runs):
    monitor = set_benchmark["monitor"]
    violations = monitor.violations + news_family_runs["news_monotone_violations"]
    increases = monitor.news2_set5_increases
    ok = violations == 0 and increases >= 1
    report(
        10,
        ok,
        f"monotone violations for NEWS/DY across all seeded runs: {violations} (must be 0); "
        f"SET5 runs where NEWS2(10,100) increased f: {increases}/30 (need >= 1)",
    )


# -------------------------------------------------------------------- C9


def test_criterion_09_keystone_formula_equivalence():
    worst = 0.0
    for seed in range(1, 6):
        p = gen_diag_problem(SpectrumSpec("TP1", 100, 100.0, seed))
        tr = run(p, np.ones(100), StrategySpec("AOPT"), eps=1e-14, max_iter=30,
                 retain_gradients=True)
        mem = StepsizeMemory()
        mem.start(tr.gradients[0])
        for i in range(1, len(tr.gradients)):
            mem.push(tr.gradients[i], -tr.alpha[i - 1] * tr.gradients[i - 1],
                     alpha_used=tr.alpha[i - 1])
            if i + 1 >= 3:
                general = bar_alpha_general(mem)
                direct = bar_alpha_direct(tr.gradients[i - 2], tr.gradients[i - 1], p)
                worst = max(worst, abs(general - direct) / abs(direct))
    ok = worst <= 1e-8
    report(9, ok, f"worst relative disagreement over 5 seeded trajectories: {worst:.2e} (<= 1e-8)")


# ------------------------------------------------------------------- C11


def test_criterion_11_stepsize_orderings():
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    worst_gap = 0.0
    while checked < 10_000:
        s = rng.standard_normal(8)
        y = rng.standard_normal(8)
        if float(s @ y) <= 0.0:
            continue
        checked += 1
        mem = StepsizeMemory()
        g0 = np.zeros(8)
        mem.start(g0)
        mem.push(y.copy(), s, alpha_used=1.0)
        bb1, bb2 = bb_pair(s, y)
        pval = p_stepsize(mem)
        ok = ok and (bb2 <= pval * (1 + 1e-12)) and (pval <= bb1 * (1 + 1e-12))
        gap = abs(pval - math.sqrt(bb1 * bb2)) / pval
        worst_gap = max(worst_gap, gap)
    ok = ok and worst_gap <= 1e-12

    p = gen_diag_problem(SpectrumSpec("SET1", 50, 1e4, 77))
    aopt_ok = True
    for _ in range(10_000):
        g = rng.standard_normal(50)
        aopt_ok = aopt_ok and aopt_stepsize(g, p) <= sd_stepsize(g, p) * (1 + 1e-12)
    ok = ok and aopt_ok
    report(
        11,
        ok,
        f"10^4 draws: bb2 <= p <= bb1 and |p - sqrt(bb1*bb2)|/p <= 1e-12 "
        f"(worst {worst_gap:.2e}); 10^4 draws: aopt <= sd holds: {aopt_ok}",
    )


# ------------------------------------------------------------------- C12


def test_criterion_12_bound_constrained_parity(tmp_path):
    suite = make_suite()
    solvers = {
        "A1": BoxRunConfig(variant="A1"),
        "A1_BB1": BoxRunConfig(variant="A1_BB1"),
        "A1_BB2": BoxRunConfig(variant="A1_BB2"),
        "SPG": BoxRunConfig(variant="SPG", M=10),
    }
    entries_iter = []
    entries_fe = []
    unsolved = []
    rule_violations = 0
    iters = {name: [] for name in solvers}
    for entry in suite:
        for name, cfg in solvers.items():
            trace = solve_box(entry.oracle_factory(), entry.bounds, entry.x1, cfg)
            solved = trace.termination == "gradient_tol" and trace.pg_inf[-1] <= 1e-6
            if not solved:
                unsolved.append((entry.name, name))
            for rec in trace.ls_records:
                if rec["unit"]:
                    if rec["f_new"] > rec["f_r"] + rec["sigma"] * rec["gd"]:
                        rule_violations += 1
                else:
                    bound = min(rec["f_max"], rec["f_r"])
                    if rec["f_new"] > bound + rec["sigma"] * rec["lam"] * rec["gd"]:
                        rule_violations += 1
            entries_iter.append((entry.name, name, float(trace.iterations), solved))
            entries_fe.append((entry.name, name, float(trace.func_evals), solved))
            iters[name].append(trace.iterations)

    prof_ok = True
    for entries, metric in ((entries_iter, "iterations"), (entries_fe, "func_evals")):
        prof = performance_profile(entries, metric=metric)
        prof.to_csv(str(tmp_path / f"profile_{metric}.csv"))
        for solver in prof.solvers:
            rhos = [r for _, r in prof.breakpoints[solver]]
            solved_fraction = sum(1 for p_, s_, v_, okd in entries if s_ == solver and okd) / len(suite)
            prof_ok = prof_ok and rhos == sorted(rhos) and rhos[-1] == pytest.approx(solved_fraction)
    prof_ok = prof_ok and all((tmp_path / f"profile_{m}.csv").exists() for m in ("iterations", "func_evals"))

    a1_median = float(np.median(iters["A1"]))
    spg_median = float(np.median(iters["SPG"]))
    ok = not unsolved and rule_violations == 0 and prof_ok
    report(
        12,
        ok,
        f"unsolved pairs: {unsolved or 'none'}; line-search rule violations: {rule_violations}; "
        f"profiles monotone with terminal=fraction solved: {prof_ok}; "
        f"informative (non-gating): median iterations A1={a1_median:.0f} vs SPG={spg_median:.0f}",
    )
