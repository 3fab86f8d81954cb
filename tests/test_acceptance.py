"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest
import support
from scipy import stats

from rewardevo import envs, llm, rsl
from rewardevo.envs import get_schema, make_task, random_context
from rewardevo.evolution import RunConfig, run_discovery, select_survivors
from rewardevo.evolution.selection import first_draw_distribution
from rewardevo.evolution.loop import _State
from rewardevo.fitness import (
    EvalBudget,
    EvaluationScheduler,
    FitnessCache,
    aggregate_scores,
    compute_sne,
    evaluate_fitness,
)
from rewardevo.problems import ProblemSuite, make_instance, make_suite
from support import MagicEvaluator, full_run_script, reward_response

pytestmark = pytest.mark.acceptance


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_aggregation_oracle():
    """Eq.-2 aggregation equals an independent brute force within 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n_inst = int(rng.integers(1, 24))
        gamma = int(rng.integers(1, 12))
        matrix = rng.uniform(0.0, 3.0, size=(n_inst, gamma)).tolist()
        fitness, medians = aggregate_scores(matrix)
        oracle_meds = [statistics.median_low(row) for row in matrix]
        oracle = sum(oracle_meds) / len(oracle_meds)
        worst = max(worst, abs(fitness - oracle))
        assert medians == oracle_meds
    elapsed = time.perf_counter() - start
    report(
        1,
        "normalized-indicator aggregation matches brute force",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_selection_law():
    """100k seeded first draws from N=5 selections over a pool of 30 match
    the closed-form rank distribution (chi-square p > 0.01)."""
    start = time.perf_counter()
    cfg = RunConfig(niche_size=5, seed=0)
    state = _State(cfg)
    pool = []
    for k in range(30):
        src = f"return {0.01 * k + 0.01}, {{}}"
        prog = rsl.parse(src)
        ind = state.new_individual(
            "de-operator-selection", "t", src, prog, 0, (), "init"
        )
        ind.fitness = 0.01 * k + 0.01
        ind.status = "alive"
        pool.append(ind)
    order = sorted(pool, key=lambda i: (i.fitness, i.generation_born, i.id))
    rank = {ind.id: r for r, ind in enumerate(order)}
    rng = np.random.default_rng(7)
    counts = np.zeros(30)
    for _ in range(100_000):
        draw_log = []
        select_survivors(pool, 5, rng, nominal_pool_size=30, draw_log=draw_log)
        counts[rank[draw_log[0].id]] += 1
    expected = first_draw_distribution(30, 30) * 100_000
    pvalue = float(stats.chisquare(counts, expected).pvalue)
    elapsed = time.perf_counter() - start
    rank0 = expected[0] / 100_000
    report(
        2,
        "rank-weighted selection law (first draw)",
        pvalue > 0.01 and elapsed < 10.0,
        f"p={pvalue:.3f}, rank-0 closed form {rank0:.6f}, {elapsed:.1f}s",
    )


def test_criterion_03_discovered_reward_conformance():
    """The three bundled discovered rewards parse, validate, and stay inside
    their stated clip ranges on 1000 randomized schema-valid contexts each."""
    start = time.perf_counter()
    ranges = {
        "de-operator-selection": (-1.0, 2.0),
        "algorithm-selection": (-1.0, 1.5),
        "pso-parameter-control": (-1.0, 1.0),
    }
    rng = np.random.default_rng(99)
    for task_id, (lo, hi) in ranges.items():
        program = envs.discovered_reward(task_id)
        rsl.validate(program, get_schema(task_id).names())
        for _ in range(1000):
            ctx = random_context(task_id, rng)
            total = rsl.evaluate(program, ctx).total
            assert lo <= total <= hi, (task_id, total)
    elapsed = time.perf_counter() - start
    report(
        3,
        "discovered rewards conform to their clip ranges",
        elapsed < 30.0,
        f"3 x 1000 contexts, {elapsed:.1f}s",
    )


def _discovery_setup(tmp_path, tag: str):
    config = RunConfig(
        tasks=list(support.TASKS3),
        dimension=5,
        suite_seed=3,
        niche_size=2,
        g_max=2,
        gamma=1,
        fe_budget=1000,
        train_episodes=2,
        seed=11,
    )
    script = full_run_script(config.tasks, config.niche_size, config.g_max)
    suite = make_suite(config.dimension, config.suite_seed)
    budget = EvalBudget(gamma=1, fe_budget=1000, train_episodes=2)
    out = tmp_path / tag
    evaluator = EvaluationScheduler(
        suite, budget, config.seed, FitnessCache(out / "fitness-cache"), worker_count=1
    )
    provider = llm.MockProvider(script.script)
    return config, provider, evaluator, out


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_04_full_run_determinism(tmp_path):
    """A full replay-mock discovery run (K=3, N=2, G=2, gamma=1, fe=1000,
    d=5) finishes in under 3 minutes and reruns byte-identically."""
    durations = []
    trees = []
    for tag in ("a", "b"):
        config, provider, evaluator, out = _discovery_setup(tmp_path, tag)
        start = time.perf_counter()
        run_discovery(config, provider, evaluator, out)
        durations.append(time.perf_counter() - start)
        trees.append(_tree_bytes(out))
    same_names = set(trees[0]) == set(trees[1])
    diffs = [k for k in trees[0] if same_names and trees[0][k] != trees[1][k]]
    report(
        4,
        "full discovery run is deterministic",
        same_names and not diffs and max(durations) < 180.0,
        f"runs {durations[0]:.0f}s/{durations[1]:.0f}s, "
        f"{len(trees[0])} files, diffs={diffs[:3]}",
    )


def test_criterion_05_initialization_contract():
    """Improving candidates all strictly beat the expert anchor; worse-only
    candidates trip the fallback flag with the anchor as niche best."""
    from rewardevo.evolution import initialize_niche

    meta = envs.load_task_metadata("de-operator-selection")

    def init_with(responses):
        cfg = RunConfig(tasks=["de-operator-selection"], niche_size=3, seed=1)
        state = _State(cfg)
        mock = llm.MockProvider(
            [{"template_id": "init", "response": r} for r in responses]
        )
        return initialize_niche(
            "de-operator-selection", meta, mock, MagicEvaluator(), 3, 10, 95, state
        )

    improving = init_with([reward_response(-0.3), reward_response(-0.2)])
    anchor = next(m for m in improving.members if m.operator == "expert")
    ok_improving = (
        not improving.init_fallback
        and len(improving.members) == 3
        and all(
            m.fitness < anchor.fitness
            for m in improving.members
            if m.operator != "expert"
        )
    )

    worse = init_with([reward_response(0.9)] * 10)
    ok_worse = worse.init_fallback and worse.best_member().operator == "expert"
    report(
        5,
        "initialization rejection sampling and fallback",
        ok_improving and ok_worse,
        f"improving fitnesses "
        f"{[round(m.fitness, 3) for m in improving.members]}, "
        f"fallback={worse.init_fallback}",
    )


def test_criterion_06_offspring_arithmetic(tmp_path):
    """5N offspring per niche per generation; exactly one KT pass per
    generation appends to transfers.jsonl."""
    n, g = 5, 2
    config = RunConfig(
        tasks=list(support.TASKS3), niche_size=n, g_max=g, seed=2, kt_pathways=3
    )
    script = full_run_script(config.tasks, n, g, kt_pathways=3)
    out = tmp_path / "run"
    result = run_discovery(
        config, llm.MockProvider(script.script), MagicEvaluator(), out
    )
    ok = True
    detail = []
    for tid in config.tasks:
        for gen in range(1, g + 1):
            docs = [
                json.loads(p.read_text())
                for p in (out / "niches" / tid / f"gen-{gen}").glob("*.json")
            ]
            offspring = [
                d
                for d in docs
                if d["generation_born"] == gen and d["operator"] != "kt"
            ]
            if len(offspring) != 5 * n:
                ok = False
                detail.append(f"{tid} gen{gen}: {len(offspring)}")
    transfers = result.run_dir.read_transfers()
    gens = sorted({t["generation"] for t in transfers})
    per_gen = {gg: sum(1 for t in transfers if t["generation"] == gg) for gg in gens}
    kt_ok = gens == [1, 2] and all(v == 3 for v in per_gen.values())
    report(
        6,
        "offspring arithmetic (5N per niche) and one KT pass per generation",
        ok and kt_ok,
        f"offspring ok={ok}, kt per gen={per_gen}",
    )


@pytest.mark.slow
def test_criterion_07_learning_signal():
    """On a Sphere-only micro-suite the improvement-indicator reward trains a
    policy whose mean fitness beats the untrained random policy (sign test
    p < 0.05 over 10 paired seeds)."""
    start = time.perf_counter()
    train = [make_instance("sphere", 2, 101)]
    test = [make_instance("sphere", 2, s) for s in (202, 303, 404, 505)]
    suite = ProblemSuite(
        train_instances=train, test_instances=test, dimension=2, seed=0
    )
    improve = rsl.parse(
        "if ctx.gbest_improve > 0.0:\n    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}"
    )
    # Budget placed mid-convergence (NP=200) so policy quality is measurable.
    trained_task = make_task(
        "de-operator-selection", suite, max_fes=2000,
        optimizer_overrides={"NP": 200},
    )
    random_task = make_task(
        "de-operator-selection", suite, max_fes=2000,
        optimizer_overrides={"NP": 200}, policy_overrides={"kind": "random"},
    )
    trained_budget = EvalBudget(gamma=3, fe_budget=2000, train_episodes=20)
    random_budget = EvalBudget(gamma=3, fe_budget=2000, train_episodes=0)
    pairs = []
    for seed in range(10):
        rt = evaluate_fitness(improve, trained_task, suite, trained_budget, seed)
        rr = evaluate_fitness(improve, random_task, suite, random_budget, seed)
        pairs.append((rt.fitness, rr.fitness))
    wins = sum(1 for t, r in pairs if t < r)
    losses = sum(1 for t, r in pairs if t > r)
    n_eff = wins + losses
    p = sum(math.comb(n_eff, k) for k in range(wins, n_eff + 1)) / 2.0**n_eff
    mean_trained = sum(t for t, _ in pairs) / len(pairs)
    mean_random = sum(r for _, r in pairs) / len(pairs)
    elapsed = time.perf_counter() - start
    report(
        7,
        "learning-signal sanity (trained <= random, sign test)",
        mean_trained <= mean_random and p < 0.05 and elapsed < 120.0,
        f"wins {wins}/{n_eff}, p={p:.4f}, means {mean_trained:.2e} vs "
        f"{mean_random:.2e}, {elapsed:.0f}s",
    )


def test_criterion_08_sne():
    identical = compute_sne([0.4, 0.2, 0.7], [0.4, 0.2, 0.7])
    halved = compute_sne([0.2, 0.1, 0.35], [0.4, 0.2, 0.7])
    report(
        8,
        "summed normalized efficiency",
        identical == 1.0 and abs(halved - 0.5) <= 1e-12,
        f"parity={identical}, halved={halved}",
    )


def test_criterion_09_sandbox_safety():
    """The hostile triple loop hits the step budget in under a second; a
    10,000-case fuzz of parse/evaluate produces zero crashes."""
    hostile = (
        "n = 100000\nacc = 0.0\n"
        "for i in range(n):\n"
        "    for j in range(n):\n"
        "        for k in range(n):\n"
        "            acc = acc + 1.0\n"
        "return acc, {}"
    )
    program = rsl.parse(hostile)
    start = time.perf_counter()
    budget_hit = False
    try:
        rsl.evaluate(program, {})
    except rsl.RslBudgetError:
        budget_hit = True
    hostile_time = time.perf_counter() - start

    rng = np.random.default_rng(5)
    alphabet = list("abcxyz01. +-*/%()[]{}:=<>&#\"'\n\t") + [
        "ctx.",
        "return ",
        "for ",
        "range(",
        "if ",
        "mean(",
        "def ",
        "while ",
        "1e308",
        "improvement",
    ]
    bases = [
        "return 0.0, {}",
        "x = ctx.a / ctx.b\nreturn x, {}",
        "s = 0.0\nfor i in range(9):\n    s = s + i\nreturn s, {}",
        'c = {}\nc["k"] = 1.0\nreturn mean([1.0, 2.0]), c',
    ]
    crashes = 0
    for case in range(10_000):
        if case % 2 == 0:
            n_tok = int(rng.integers(1, 30))
            src = "".join(rng.choice(alphabet) for _ in range(n_tok))
        else:
            base = bases[case % len(bases)]
            pos = int(rng.integers(0, len(base)))
            junk = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 6))))
            src = base[:pos] + junk + base[pos:]
        try:
            program = rsl.parse(src)
        except rsl.RslParseError:
            continue
        except Exception:
            crashes += 1
            continue
        try:
            rsl.evaluate(program, {"a": 1.0, "b": 2.0}, rsl.EvalLimits(50_000, 1000))
        except rsl.RslRuntimeError:
            pass
        except Exception:
            crashes += 1
    report(
        9,
        "sandbox safety (hostile loop + 10k-case fuzz)",
        budget_hit and hostile_time < 1.0 and crashes == 0,
        f"hostile {hostile_time * 1000:.0f}ms, crashes={crashes}",
    )


def test_criterion_10_scheduler_invariance(suite_d2):
    """A 25-job batch yields bit-identical reports at worker counts 1 and 8."""
    budget = EvalBudget(gamma=1, fe_budget=600, train_episodes=0)
    rewards = [
        rsl.parse(f"return clip(ctx.gbest_improve * {k + 1}.0, 0.0, 1.0), {{}}")
        for k in range(13)
    ]
    jobs = [
        (rewards[i % 13], ("pso-parameter-control", "algorithm-selection")[i % 2])
        for i in range(25)
    ]
    r1 = EvaluationScheduler(suite_d2, budget, 4, FitnessCache(), 1).run(jobs)
    r8 = EvaluationScheduler(suite_d2, budget, 4, FitnessCache(), 8).run(jobs)
    identical = all(a.to_dict() == b.to_dict() for a, b in zip(r1, r8))
    report(
        10,
        "scheduler invariance across worker counts",
        identical and len(r1) == 25,
        f"25 jobs, workers 1 vs 8",
    )
