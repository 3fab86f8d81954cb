import json
import math

import numpy as np
import pytest
import support
from conftest import golden_check

from rewardevo import cli, llm, rsl
from rewardevo.envs import get_schema, load_task_metadata
from rewardevo.evolution import (
    NO_ARCHIVE_MARKER,
    NO_HISTORY_MARKER,
    Archive,
    DiscoveryAborted,
    Individual,
    RunConfig,
    first_draw_distribution,
    initialize_niche,
    op_c2,
    op_m1,
    op_m2,
    request_individual,
    run_discovery,
    select_survivors,
    summarize_archive,
)
from rewardevo.evolution.loop import _State
from support import MagicEvaluator, ReplayBuilder, full_run_script, reward_response

DE = "de-operator-selection"
PSO = "pso-parameter-control"
DAS = "algorithm-selection"


def make_individual(state, task_id=DE, constant=0.4, fitness=None, thought="t"):
    src = f"return {constant}, {{}}"
    program = rsl.parse(src)
    ind = state.new_individual(task_id, thought, src, program, 0, (), "init")
    ind.fitness = constant if fitness is None else fitness
    ind.status = "alive"
    ind.per_instance_medians = [ind.fitness + 0.001 * i for i in range(16)]
    return ind


@pytest.fixture()
def state():
    cfg = RunConfig(tasks=[DE, PSO], niche_size=2, g_max=1, seed=5)
    return _State(cfg)


class TestRequestIndividual:
    def test_malformed_then_valid_records_attempt_two(self):
        mock = llm.MockProvider(
            [
                {"template_id": "m2", "response": "no code block here"},
                {"template_id": "m2", "response": reward_response(0.1)},
            ]
        )
        result = request_individual(mock, "m2", _m2_vars(), get_schema(DE))
        assert result is not None
        assert mock.consumed["m2"] == 2

    def test_foreign_field_triggers_reprompt(self):
        bad = "idea\n```rsl\nreturn ctx.gbest_val, {}\n```"  # PSO field on DE schema
        mock = llm.MockProvider(
            [
                {"template_id": "m2", "response": bad},
                {"template_id": "m2", "response": reward_response(0.2)},
            ]
        )
        result = request_individual(mock, "m2", _m2_vars(), get_schema(DE))
        assert result is not None and mock.consumed["m2"] == 2

    def test_too_deeply_nested_response_triggers_reprompt(self):
        lines = ["    " * k + "if 1 > 0:" for k in range(100)]
        deep = "\n".join(lines + ["    " * 100 + "x = 1.0", "return 0.0, {}"])
        mock = llm.MockProvider(
            [
                {"template_id": "m2", "response": f"nested\n```rsl\n{deep}\n```"},
                {"template_id": "m2", "response": reward_response(0.3)},
            ]
        )
        result = request_individual(mock, "m2", _m2_vars(), get_schema(DE))
        assert result is not None and mock.consumed["m2"] == 2

    def test_exhausted_returns_none(self):
        mock = llm.MockProvider(
            [{"template_id": "m2", "response": "still no block"}] * 3
        )
        assert request_individual(mock, "m2", _m2_vars(), get_schema(DE)) is None


def _m2_vars():
    return {
        "task_metadata": "M",
        "language_guide": llm.language_guide(),
        "history_trace": NO_HISTORY_MARKER,
        "fitness": "0.5",
        "fitness_detailed": "(none)",
        "thought": "t",
        "code": "return 0.5, {}",
    }


class TestInitialization:
    def _run(self, responses, n=3, attempts=10):
        cfg = RunConfig(tasks=[DE], niche_size=n, g_max=1, seed=1)
        st = _State(cfg)
        mock = llm.MockProvider(
            [{"template_id": "init", "response": r} for r in responses]
        )
        niche = initialize_niche(
            DE, load_task_metadata(DE), mock, MagicEvaluator(), n, attempts, 95, st
        )
        return niche, st

    def test_improving_candidates_fill_without_fallback(self):
        niche, _ = self._run([reward_response(-0.2), reward_response(-0.1)])
        assert len(niche.members) == 3
        assert not niche.init_fallback
        anchor = next(m for m in niche.members if m.operator == "expert")
        for m in niche.members:
            if m.operator != "expert":
                assert m.fitness < anchor.fitness

    def test_worse_only_candidates_set_fallback_and_anchor_best(self):
        niche, _ = self._run([reward_response(0.9)] * 10)
        assert niche.init_fallback
        best = niche.best_member()
        assert best.operator == "expert"
        assert len(niche.members) == 3  # filled from best rejected

    def test_rejects_count_against_attempts(self):
        niche, st = self._run([reward_response(0.9)] * 4, n=3, attempts=4)
        assert niche.init_fallback
        # 4 attempts, all rejected; 2 best rejects were recycled as members
        assert len(niche.members) == 3
        recycled = [m for m in niche.members if m.operator == "init"]
        assert [m.fitness for m in recycled] == [0.9, 0.9]

    def test_unused_rejects_archived(self):
        niche, st = self._run([reward_response(0.9)] * 10)
        assert len(st.archive) > 0
        assert all(e.status == "eliminated" for e in st.archive.entries)


class TestOperators:
    def test_m1_names_worst_three_instances(self, state):
        parent = make_individual(state)
        parent.per_instance_medians = [0.1] * 16
        parent.per_instance_medians[4] = 0.9
        parent.per_instance_medians[7] = 0.8
        parent.per_instance_medians[11] = 0.7
        captured = {}

        class Spy:
            max_attempts = 3

            def complete(self, template_id, prompt, temperature=None):
                captured.setdefault(template_id, prompt)
                if template_id == "m1_reflect":
                    return llm.ChatExchange(template_id, prompt, "refl", "spy", 0, 1)
                return llm.ChatExchange(
                    template_id, prompt, reward_response(0.1), "spy", 0, 1
                )

        from rewardevo.problems import DISPLAY_NAMES, TEST_FAMILIES

        labels = [DISPLAY_NAMES[f] for f in TEST_FAMILIES]
        cand = op_m1(parent, load_task_metadata(DE), labels, 3, Spy())
        assert cand is not None and cand.operator == "m1"
        prompt = captured["m1_reflect"]
        for idx in (4, 7, 11):
            assert labels[idx] in prompt
        assert cand.reflection == "refl"

    def test_m1_tie_break_by_suite_order(self, state):
        parent = make_individual(state)
        parent.per_instance_medians = [0.5] * 16  # all tied
        captured = {}

        class Spy:
            max_attempts = 3

            def complete(self, template_id, prompt, temperature=None):
                captured.setdefault(template_id, prompt)
                body = "refl" if template_id == "m1_reflect" else reward_response(0.1)
                return llm.ChatExchange(template_id, prompt, body, "spy", 0, 1)

        labels = [f"inst-{i:02d}" for i in range(16)]
        op_m1(parent, load_task_metadata(DE), labels, 3, Spy())
        prompt = captured["m1_reflect"]
        assert "inst-00" in prompt and "inst-01" in prompt and "inst-02" in prompt
        assert "inst-03" not in prompt

    def test_m2_no_history_marker(self, state):
        parent = make_individual(state)
        captured = {}

        class Spy:
            max_attempts = 3

            def complete(self, template_id, prompt, temperature=None):
                captured[template_id] = prompt
                return llm.ChatExchange(
                    template_id, prompt, reward_response(0.1), "spy", 0, 1
                )

        cand = op_m2(parent, [], load_task_metadata(DE), Spy())
        assert cand is not None
        assert NO_HISTORY_MARKER in captured["m2"]

    def test_trace_capped_at_window(self, state):
        # Build a 7-deep lineage; trace with L=5 keeps the 5 most recent.
        chain = [make_individual(state, constant=0.4)]
        for k in range(7):
            nxt = make_individual(state, constant=0.4 - 0.01 * (k + 1))
            nxt.parent_ids = (chain[-1].id,)
            chain.append(nxt)
        trace = state.trace(chain[-1], 5)
        assert len(trace) == 5
        assert trace[-1].id == chain[-2].id  # newest ancestor last (oldest first)
        assert trace[0].id == chain[2].id

    def test_archive_summary_cached_per_generation(self, state):
        calls = []

        class Spy:
            max_attempts = 3

            def complete(self, template_id, prompt, temperature=None):
                calls.append(template_id)
                return llm.ChatExchange(
                    template_id, prompt, "```summary\nS\n```", "spy", 0, 1
                )

        archive = Archive(10)
        archive.add(make_individual(state, constant=0.9))
        meta = load_task_metadata(DE)
        s1 = summarize_archive(archive, 3, meta, Spy())
        s2 = summarize_archive(archive, 3, meta, Spy())
        assert s1 == s2 == "S"
        assert calls == ["m3_reflect"]  # second call served from cache
        s3 = summarize_archive(archive, 4, meta, Spy())
        assert calls.count("m3_reflect") == 2 and s3 == "S"

    def test_empty_archive_uses_placeholder(self, state):
        class Boom:
            max_attempts = 3

            def complete(self, *a, **k):  # pragma: no cover
                raise AssertionError("must not be called for an empty archive")

        summary = summarize_archive(Archive(10), 1, load_task_metadata(DE), Boom())
        assert summary == NO_ARCHIVE_MARKER

    def test_c2_partner_respects_schema_of_parent_task(self, state):
        parent = make_individual(state, task_id=DE)
        partner = make_individual(state, task_id=PSO)
        # First response reads a PSO-only field (invalid on DE), second is fine.
        mock = llm.MockProvider(
            [
                {"template_id": "c2", "response": "x\n```rsl\nreturn ctx.pre_gbest, {}\n```"},
                {"template_id": "c2", "response": reward_response(0.1)},
            ]
        )
        cand = op_c2(parent, partner, load_task_metadata(DE), mock)
        assert cand is not None and mock.consumed["c2"] == 2
        assert cand.parent_ids == (parent.id, partner.id)


class TestSelection:
    def test_first_draw_closed_form(self):
        """DERIVED by direct summation: rank-0 probability with pool 30 is
        (1/30) / sum_{r=0}^{29} 1/(r+30) = 0.047514 (frozen from the oracle)."""
        probs = first_draw_distribution(30, 30)
        direct = (1.0 / 30.0) / sum(1.0 / (r + 30.0) for r in range(30))
        assert probs[0] == pytest.approx(direct, abs=1e-15)
        assert direct == pytest.approx(0.0475138, abs=1e-6)
        assert probs.sum() == pytest.approx(1.0)

    def test_sequential_draw_without_replacement(self, state):
        pool = [make_individual(state, constant=0.1 * k) for k in range(8)]
        rng = np.random.default_rng(0)
        survivors, eliminated = select_survivors(pool, 3, rng, nominal_pool_size=12)
        assert len(survivors) == 3 and len(eliminated) == 5
        assert len({s.id for s in survivors}) == 3
        assert {s.id for s in survivors} | {e.id for e in eliminated} == {
            p.id for p in pool
        }

    def test_pool_smaller_than_n_all_survive(self, state):
        pool = [make_individual(state) for _ in range(2)]
        survivors, eliminated = select_survivors(
            pool, 5, np.random.default_rng(0), nominal_pool_size=30
        )
        assert len(survivors) == 2 and not eliminated

    def test_invalid_individuals_rejected(self, state):
        bad = make_individual(state)
        bad.fitness = math.inf
        with pytest.raises(ValueError):
            select_survivors([bad], 1, np.random.default_rng(0), 6)

    def test_all_equal_fitness_first_draw_uniformish(self, state):
        pool = [make_individual(state, constant=0.5) for _ in range(6)]
        counts = np.zeros(6)
        idx = {p.id: i for i, p in enumerate(pool)}
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            survivors, _ = select_survivors(pool, 1, rng, nominal_pool_size=6)
            counts[idx[survivors[0].id]] += 1
        # Ranks are fixed by the id tie-break; Eq.-weights with P=6 give
        # probabilities 1/6w .. 1/11w. Check monotone-ish ordering holds.
        expected = first_draw_distribution(6, 6) * 4000
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 30.0  # df=5, generous

    @pytest.mark.slow
    def test_empirical_law_matches_closed_form(self, state):
        """100k first draws vs the closed form, chi-square p > 0.01."""
        from scipy import stats

        pool = [make_individual(state, constant=0.01 * k) for k in range(30)]
        order = sorted(pool, key=lambda i: (i.fitness, i.generation_born, i.id))
        rank = {ind.id: r for r, ind in enumerate(order)}
        rng = np.random.default_rng(7)
        counts = np.zeros(30)
        weights = first_draw_distribution(30, 30)
        for _ in range(100_000):
            pick = rng.choice(30, p=weights)
            counts[pick] += 1
        # The selection routine must produce the same first-draw law: spot
        # check by drawing through select_survivors on a smaller sample.
        counts2 = np.zeros(30)
        for seed in range(20_000):
            srng = np.random.default_rng(100_000 + seed)
            survivors, _ = select_survivors(pool, 1, srng, nominal_pool_size=30)
            counts2[rank[survivors[0].id]] += 1
        expected = weights * 100_000
        p1 = stats.chisquare(counts, expected).pvalue
        expected2 = weights * 20_000
        p2 = stats.chisquare(counts2, expected2).pvalue
        assert p1 > 0.01
        assert p2 > 0.01


class TestDiscoveryRuns:
    def _run(self, tmp_path, tasks=(DE, PSO, DAS), n=2, g=2, **cfg_kw):
        cfg = RunConfig(tasks=list(tasks), niche_size=n, g_max=g, seed=1, **cfg_kw)
        script = full_run_script(list(tasks), n, g)
        provider = llm.MockProvider(script.script)
        out = tmp_path / "run"
        result = run_discovery(cfg, provider, MagicEvaluator(), out)
        return cfg, result, out

    def test_offspring_arithmetic_and_kt_pass(self, tmp_path):
        cfg, result, out = self._run(tmp_path)
        # exactly 5N offspring per niche per generation
        for tid in cfg.tasks:
            for g in (1, 2):
                docs = [
                    json.loads(p.read_text())
                    for p in (out / "niches" / tid / f"gen-{g}").glob("*.json")
                ]
                offspring = [
                    d for d in docs
                    if d["generation_born"] == g and d["operator"] != "kt"
                ]
                assert len(offspring) == 5 * cfg.niche_size
        transfers = result.run_dir.read_transfers()
        assert {t["generation"] for t in transfers} == {1, 2}

    def test_population_size_invariant(self, tmp_path):
        cfg, result, _ = self._run(tmp_path)
        for niche in result.niches.values():
            assert len(niche.members) == cfg.niche_size
            assert all(m.status == "alive" and m.valid for m in niche.members)

    def test_best_so_far_monotone(self, tmp_path):
        cfg, result, out = self._run(tmp_path, g=3)
        import csv

        with (out / "report.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_task = {}
        for row in rows:
            per_task.setdefault(row["task"], []).append(row["best_fitness"])
        for series in per_task.values():
            vals = [float(v) for v in series if v]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_archive_conservation(self, tmp_path):
        cfg, result, out = self._run(tmp_path)
        from rewardevo.evolution.loop import _State  # noqa: F401

        # every individual is exactly one of alive / eliminated / invalid
        seen = {}
        for _tid, _g, doc in result.run_dir.iter_individuals():
            seen[doc["id"]] = doc["status"]
        assert set(seen.values()) <= {"alive", "eliminated", "invalid"}
        alive_ids = {
            m.id for niche in result.niches.values() for m in niche.members
        }
        for ind_id, status in seen.items():
            if ind_id in alive_ids:
                continue  # final population
        assert len(seen) == len(set(seen))  # ids never reused

    def test_skipped_slot_keeps_generation_going(self, tmp_path):
        tasks = [DE, PSO]
        n, g = 2, 1
        b = ReplayBuilder()
        for _t in tasks:
            b.add_reward("init")
        first = True
        for _t in tasks:
            for _parent in range(n):
                b.add("m1_reflect", "r")
                if first:
                    # three malformed responses exhaust the retry budget
                    for _ in range(3):
                        b.add("m1_mutate", "malformed, no code")
                    first = False
                else:
                    b.add_reward("m1_mutate")
                b.add_reward("m2")
                b.add_reward("m3_mutate")
                b.add_reward("c1")
                b.add_reward("c2")
        b.add("kt_reflect", json.dumps([
            {"source_task": DE, "target_task": PSO,
             "rationale": "", "transfer_strategy_guidance": ""}]))
        b.add_reward("kt_execute")
        cfg = RunConfig(tasks=tasks, niche_size=n, g_max=g, seed=1)
        result = run_discovery(
            cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
        )
        # one m1 slot skipped: 2N*5 - 1 offspring total across both niches
        total_offspring = sum(
            1
            for _t, _g, d in result.run_dir.iter_individuals()
            if d["generation_born"] == 1 and d["operator"] != "kt"
        )
        assert total_offspring == 2 * n * 5 - 1

    def test_kt_failed_validation_aborts_pathway(self, tmp_path):
        tasks = [DE, PSO]
        n = 2
        b = full_run_script(tasks, n, 1, kt_pathways=1)
        # make the single kt_execute response invalid 3 times (retry budget)
        b.script = [e for e in b.script if e["template_id"] != "kt_execute"]
        for _ in range(3):
            b.add("kt_execute", "x\n```rsl\nreturn ctx.not_a_field, {}\n```")
        cfg = RunConfig(tasks=tasks, niche_size=n, g_max=1, seed=1, kt_pathways=1)
        result = run_discovery(
            cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
        )
        transfers = result.run_dir.read_transfers()
        assert len(transfers) == 1
        assert transfers[0]["status"] == "failed"
        assert transfers[0]["replaced_id"] is None
        for niche in result.niches.values():
            assert len(niche.members) == n

    def test_kt_replaces_worst_unconditionally(self, tmp_path):
        tasks = [DE, PSO]
        n = 2
        b = full_run_script(tasks, n, 1, kt_pathways=1)
        # transplant worse than everyone: constant 5.0
        b.script = [e for e in b.script if e["template_id"] != "kt_execute"]
        b.add("kt_execute", reward_response(5.0))
        cfg = RunConfig(tasks=tasks, niche_size=n, g_max=1, seed=1, kt_pathways=1)
        result = run_discovery(
            cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
        )
        rec = result.run_dir.read_transfers()[0]
        assert rec["status"] == "applied"
        assert rec["transplant_fitness"] == 5.0
        target = result.niches[rec["target_task"]]
        assert any(m.fitness == 5.0 for m in target.members)

    def test_unparseable_plan_skips_kt(self, tmp_path):
        tasks = [DE, PSO]
        b = full_run_script(tasks, 2, 1)
        for e in b.script:
            if e["template_id"] == "kt_reflect":
                e["response"] = "I decline to provide JSON."
        cfg = RunConfig(tasks=tasks, niche_size=2, g_max=1, seed=1)
        result = run_discovery(
            cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
        )
        assert result.run_dir.read_transfers() == []

    def test_disable_kt(self, tmp_path):
        cfg, result, out = self._run(tmp_path, disable_kt=True)
        assert result.run_dir.read_transfers() == []

    def test_ablation_replaces_operator_with_m0(self, tmp_path):
        tasks = [DE, PSO]
        n = 2
        b = ReplayBuilder()
        for _t in tasks:
            b.add_reward("init")
        for _t in tasks:
            for _parent in range(n):
                b.add_reward("m0")  # replaces m1
                b.add_reward("m2")
                b.add_reward("m3_mutate")
                b.add_reward("c1")
                b.add_reward("c2")
        b.add("kt_reflect", json.dumps([
            {"source_task": DE, "target_task": PSO,
             "rationale": "", "transfer_strategy_guidance": ""}]))
        b.add_reward("kt_execute")
        cfg = RunConfig(
            tasks=tasks, niche_size=n, g_max=1, seed=1, replace_ops={"m1": "m0"}
        )
        result = run_discovery(
            cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
        )
        tags = {
            d["operator"]
            for _t, _g, d in result.run_dir.iter_individuals()
            if d["generation_born"] == 1 and d["operator"] != "kt"
        }
        assert "m0_simple" in tags
        assert "m1" not in tags
        # iso-budget: same offspring count as the unablated layout
        count = sum(
            1
            for _t, _g, d in result.run_dir.iter_individuals()
            if d["generation_born"] == 1 and d["operator"] != "kt"
        )
        assert count == 2 * n * 5

    def test_resume_reaches_same_final_state(self, tmp_path):
        tasks = [DE, PSO]
        n, g = 2, 2
        script = full_run_script(tasks, n, g).script
        cfg_full = RunConfig(tasks=tasks, niche_size=n, g_max=g, seed=1)
        full = run_discovery(
            cfg_full, llm.MockProvider(script), MagicEvaluator(), tmp_path / "full"
        )
        cfg_half = RunConfig(tasks=tasks, niche_size=n, g_max=1, seed=1)
        run_discovery(
            cfg_half, llm.MockProvider(script), MagicEvaluator(), tmp_path / "part"
        )
        # Continue the partial run to g_max=2 with the same replay script.
        resumed = run_discovery(
            cfg_full,
            llm.MockProvider(script),
            MagicEvaluator(),
            tmp_path / "part",
            resume=True,
        )
        full_best = {t: i.fitness for t, i in full.best.items()}
        resumed_best = {t: i.fitness for t, i in resumed.best.items()}
        assert full_best == resumed_best

    def test_dead_live_provider_aborts_resumably(self, tmp_path):
        def unavailable(url, headers, payload, timeout):
            return 503, "service unavailable"

        provider = llm.LiveProvider(
            llm.ProviderConfig(endpoint="http://127.0.0.1:9/v1", model="m"),
            transport=unavailable,
            sleep=lambda seconds: None,
        )
        cfg = RunConfig(tasks=[DE, PSO], niche_size=2, g_max=2, seed=1)
        out = tmp_path / "run"
        with pytest.raises(DiscoveryAborted) as info:
            run_discovery(cfg, provider, MagicEvaluator(), out)
        assert info.value.generation == 1
        assert (out / "snapshots" / "gen-1.json").exists()

    def test_config_validation(self):
        with pytest.raises(Exception):
            RunConfig(g_max=0).validate()
        with pytest.raises(Exception):
            RunConfig(tasks=["bogus"]).validate()
        with pytest.raises(Exception):
            RunConfig(replace_ops={"kt": "m0"}).validate()


def _recorded_prompts(exchanges_path) -> list[str]:
    """(template_id, prompt_sha256, attempt) of each recorded exchange."""
    lines = exchanges_path.read_text(encoding="utf-8").splitlines()
    return [
        "{template_id} {prompt_sha256} {attempt}".format(**json.loads(line))
        for line in lines
    ]


def prompt_hashes(tmp_path, monkeypatch) -> dict:
    """Every prompt sent by two replay discoveries over three tasks (plain,
    and with m1 replaced by m0) and by one reward transfer whose first
    adaptation is rejected."""
    tasks, n, g = support.TASKS3, 2, 2
    out = {}
    for name, replace_ops in (("plain", {}), ("replace-m1-m0", {"m1": "m0"})):
        script = full_run_script(tasks, n, g)
        if replace_ops:
            for _ in range(g * len(tasks) * n):
                script.add_reward("m0")
        cfg = RunConfig(
            tasks=tasks, niche_size=n, g_max=g, seed=5, replace_ops=replace_ops
        )
        run = tmp_path / name
        run_discovery(cfg, llm.MockProvider(script.script), MagicEvaluator(), run)
        out[name] = _recorded_prompts(run / "exchanges.jsonl")

    source = tmp_path / "source.rsl"
    rsl.write_reward_file(
        source, "if ctx.gbest_val < ctx.pre_gbest:\n    r = 1.0\nelse:\n    r = 0.0\n"
        "return r, {}", PSO, thought="improvement indicator",
    )
    foreign = "return ctx.gbest_val, {}"  # a PSO field, rejected on DAS
    adapted = "return ctx.last_cost - ctx.current_gbest, {}"
    script = [
        {"template_id": "kt_execute", "response": f"x\n```rsl\n{body}\n```"}
        for body in (foreign, adapted)
    ]
    exchanges = tmp_path / "transfer-exchanges.jsonl"
    monkeypatch.setattr(
        cli,
        "_build_provider",
        lambda cfg, replay: llm.RecordingProvider(llm.MockProvider(script), exchanges),
    )
    rc = cli.main(
        ["transfer", str(source), "--target-task", DAS, "--dimension", "2",
         "--suite-seed", "3", "--fe-budget", "300", "--train-episodes", "0",
         "--out", str(tmp_path / "adapted.rsl")]
    )
    assert rc == 0
    out["transfer"] = _recorded_prompts(exchanges)
    return out


def test_prompt_hashes_golden(tmp_path, monkeypatch, golden_dir, regen_golden):
    # Pins every prompt the search and the transfer command send, in order.
    golden_check(
        golden_dir / "prompt_hashes.json",
        json.dumps(prompt_hashes(tmp_path, monkeypatch), indent=1, sort_keys=True)
        + "\n",
        regen_golden,
    )
