import copy
import hashlib
import json

import numpy as np
import pytest
from conftest import golden_check

from rewardevo import envs, problems, rsl
from rewardevo.envs import (
    PSO_ACTION_SIZE,
    InvalidRewardError,
    RandomPolicy,
    discovered_reward,
    get_schema,
    handcrafted_reward,
    load_task_metadata,
    make_policy,
    make_task,
    random_context,
    run_episode,
    train_policy,
    validate_context,
)
from rewardevo.evolution import format_metadata


# Per task: (a reward that reads agent-side fields, one that reads none).
# The first scores outside {0, 1} only through its agent field.
AGENT_FIELD_READERS = {
    "de-operator-selection": (
        "return ctx.accepted + 0.1 * ctx.q_span, {}",
        "if ctx.gbest_improve > 0.0:\n    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}",
    ),
    "pso-parameter-control": (
        "return 0.1 * ctx.entropy, {}",
        "if ctx.gbest_improve > 0.0:\n    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}",
    ),
    "algorithm-selection": (
        "return 0.1 * ctx.policy_entropy, {}",
        "if ctx.current_gbest < ctx.last_cost:\n    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}",
    ),
}

def check_log_independent_of_context_collection(task, reads, inst):
    """A learning episode of the task's trainable policy gives the same log
    with and without collected contexts."""
    agent_source, plain_source = AGENT_FIELD_READERS[task.task_id]
    reward = rsl.parse(agent_source if reads == "reads-agent-field" else plain_source)
    logs = []
    for ctxs in (None, []):
        log = run_episode(
            task,
            task.new_policy(),
            reward,
            inst,
            7,
            800,
            learn=True,
            collect_contexts=ctxs,
        )
        logs.append(log.to_dict())
    assert logs[0] == logs[1]
    if reads == "reads-agent-field":  # the agent field really fed the rewards
        assert any(s["reward"] not in (0.0, 1.0) for s in logs[0]["steps"])


# Rewards for the episode fingerprints that read every agent-side field of
# their task; `get` turns a random policy's None fields into the default.
FINGERPRINT_AGENT_REWARDS = {
    "de-operator-selection": (
        'return ctx.accepted + 0.1 * ctx.get("q_span", 0.0)'
        ' + 0.01 * ctx.get("greedy_action", 0) + 0.01 * ctx.get("q_entropy", 0.0)'
        ' + ctx.get("recent_reward_mean", 0.0) + ctx.get("recent_reward_max", 0.0)'
        ' + 0.001 * ctx.get("training_step", 0)'
        ' + 0.1 * sum(ctx.get("q_values", [0.0])), {}'
    ),
    "pso-parameter-control": (
        'return ctx.get("entropy", 0.0) + 0.001 * ctx.get("log_prob", 0.0)'
        ' + ctx.get("training_progress", 0.0), {}'
    ),
    "algorithm-selection": (
        'return ctx.get("policy_entropy", 0.0) + ctx.get("value_estimation", 0.0)'
        ' + 0.1 * ctx.get("log_probability", 0.0) + ctx.get("gamma", 0.0)'
        ' + ctx.get("learning_rate", 0.0), {}'
    ),
}
# Small budgets keep the grid fast; DAS needs 600 FEs for three decisions.
FINGERPRINT_FES = {
    "de-operator-selection": 200,
    "pso-parameter-control": 600,
    "algorithm-selection": 600,
}


def _sha256(doc) -> str:
    text = json.dumps(doc, default=lambda v: v.tolist())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def episode_fingerprints(tasks, suite) -> dict:
    """sha256 of every episode log, and of the collected contexts in key
    order, over task x reward x policy x context collection."""
    out = {}
    instance = suite.test_instances[0]
    for task_id in envs.TASK_IDS:
        task = tasks[task_id]
        fes = FINGERPRINT_FES[task_id]
        trained = train_policy(
            task, handcrafted_reward(task_id), suite.train_instances[:1], 5, fes, seed=4
        )
        rewards = {
            "none": None,
            "anchor": handcrafted_reward(task_id),
            "discovered": discovered_reward(task_id),
            "agent": rsl.parse(FINGERPRINT_AGENT_REWARDS[task_id]),
        }
        for reward_name, reward in rewards.items():
            for mode in ("random", "trained", "learning"):
                for collect in (False, True):
                    policy = (
                        RandomPolicy(n_out=PSO_ACTION_SIZE)
                        if mode == "random"
                        else copy.deepcopy(trained)
                    )
                    ctxs = [] if collect else None
                    log = run_episode(
                        task, policy, reward, instance, 9, fes,
                        learn=(mode == "learning"), collect_contexts=ctxs,
                    )
                    key = f"{task_id}/{reward_name}/{mode}/" + (
                        "collect" if collect else "no-collect"
                    )
                    out[key] = {"log": _sha256(log.to_dict())}
                    if collect:
                        out[key]["contexts"] = _sha256(ctxs)
    return out


@pytest.fixture(scope="module")
def sphere5():
    return problems.make_instance("sphere", dimension=5, instance_seed=11)


def collect(task, instance, seed=5, fe=600):
    """A random-policy episode under the task's anchor reward, and the
    contexts it emitted."""
    ctxs = []
    log = run_episode(
        task,
        RandomPolicy(n_out=PSO_ACTION_SIZE),
        handcrafted_reward(task.task_id),
        instance,
        seed,
        fe,
        collect_contexts=ctxs,
    )
    return log, ctxs


class TestSchemas:
    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_schema_lock_on_live_episodes(self, task_id, tasks_d5, sphere5):
        """Context keys exactly equal the declared schema keys, with valid
        kinds, shapes and finite values, on every emission."""
        schema = get_schema(task_id)
        task = tasks_d5[task_id]
        for pol in (RandomPolicy(n_out=PSO_ACTION_SIZE), task.new_policy()):
            ctxs = []
            run_episode(
                task,
                pol,
                handcrafted_reward(task.task_id),
                sphere5,
                seed=3,
                fe_budget=600,
                learn=(getattr(pol, "kind", "") == "qtable"),
                collect_contexts=ctxs,
            )
            assert ctxs
            for ctx in ctxs:
                validate_context(schema, ctx)

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_randomized_contexts_are_schema_valid(self, task_id):
        schema = get_schema(task_id)
        rng = np.random.default_rng(0)
        for _ in range(200):
            validate_context(schema, random_context(task_id, rng))

    def test_de_metadata_mentions_the_three_strategies(self):
        meta = load_task_metadata("de-operator-selection")
        for marker in ("DE/rand/1", "DE/current to rand/1", "DE/best/2"):
            assert marker in meta.c_alg

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_metadata_prompt_golden(self, task_id, golden_dir, regen_golden):
        # The task-metadata block every prompt embeds; its bytes feed the
        # prompt hashes recorded in exchanges.jsonl.
        golden_check(
            golden_dir / f"metadata_{task_id}.txt",
            format_metadata(load_task_metadata(task_id)),
            regen_golden,
        )


class TestContextDerivedFields:
    def test_de_progress_and_acceptance(self, tasks_d5, sphere5):
        _, ctxs = collect(tasks_d5["de-operator-selection"], sphere5)
        first = ctxs[0]
        assert first["progress"] == first["FEs"] / first["MaxFEs"]
        assert first["accepted"] in (0, 1)
        for ctx in ctxs:
            if ctx["accepted"] == 1:
                assert ctx["delta_cost"] > 0  # improvement means positive delta
            assert ctx["delta_cost"] == pytest.approx(
                ctx["parent_cost"] - ctx["trial_cost"]
            )

    def test_pso_action_has_35_entries(self, tasks_d5, sphere5):
        _, ctxs = collect(tasks_d5["pso-parameter-control"], sphere5, fe=800)
        for ctx in ctxs:
            assert ctx["action"].shape == (35,)

    def test_das_interval_bookkeeping(self, tasks_d5, sphere5):
        _, ctxs = collect(tasks_d5["algorithm-selection"], sphere5, fe=1500)
        for ctx in ctxs:
            assert ctx["current_gbest"] <= ctx["last_cost"] + 1e-12
            assert ctx["cost_scale_factor"] > 0


class TestEpisodes:
    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_determinism_and_monotone_gbest(self, task_id, tasks_d5, sphere5):
        task = tasks_d5[task_id]
        zero = rsl.parse("return 0.0, {}")
        a = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), zero, sphere5, 7, 800)
        b = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), zero, sphere5, 7, 800)
        assert a.to_dict() == b.to_dict()
        g = [s.gbest for s in a.steps]
        assert all(later <= earlier for earlier, later in zip(g, g[1:]))
        assert a.y_final <= a.y_initial

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_seed_isolation(self, task_id, tasks_d5, sphere5):
        task = tasks_d5[task_id]
        zero = rsl.parse("return 0.0, {}")
        a = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), zero, sphere5, 7, 800)
        b = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), zero, sphere5, 8, 800)
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_fe_accounting(self, task_id, tasks_d5, sphere5):
        task = tasks_d5[task_id]
        log = run_episode(
            task, RandomPolicy(n_out=PSO_ACTION_SIZE), None, sphere5, 7, 777
        )
        assert log.fe_used <= 777

    def test_fe_counted_exactly_once(self, tasks_d5, sphere5, monkeypatch):
        """Every objective evaluation goes through the counting wrapper."""
        from rewardevo import problems as problems_mod

        calls = {"n": 0}
        real_many = problems_mod.evaluate_many
        real_one = problems_mod.evaluate

        def counting_many(inst, pts):
            calls["n"] += pts.shape[0]
            return real_many(inst, pts)

        def counting_one(inst, pt):
            calls["n"] += 1
            return real_one(inst, pt)

        monkeypatch.setattr("rewardevo.envs.episode.problems.evaluate_many", counting_many)
        monkeypatch.setattr("rewardevo.envs.episode.problems.evaluate", counting_one)
        for task_id in envs.TASK_IDS:
            calls["n"] = 0
            task = tasks_d5[task_id]
            log = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), None, sphere5, 7, 600)
            assert calls["n"] == log.fe_used

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_frozen_trace_independent_of_reward(self, task_id, tasks_d5, sphere5):
        task = tasks_d5[task_id]
        r1 = handcrafted_reward(task.task_id)
        r2 = rsl.parse("return tanh(1.0), {}")
        a = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), r1, sphere5, 7, 800)
        b = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), r2, sphere5, 7, 800)
        assert [s.gbest for s in a.steps] == [s.gbest for s in b.steps]

    @pytest.mark.parametrize("reads", ["reads-agent-field", "reads-no-agent-field"])
    def test_qtable_log_independent_of_context_collection(self, reads, tasks_d5, sphere5):
        """Agent-side fields are built on demand: a learning Q-table DE
        episode gives the same log with and without collected contexts."""
        check_log_independent_of_context_collection(
            tasks_d5["de-operator-selection"], reads, sphere5
        )

    @pytest.mark.parametrize("reads", ["reads-agent-field", "reads-no-agent-field"])
    @pytest.mark.parametrize("task_id", ["pso-parameter-control", "algorithm-selection"])
    def test_agent_log_independent_of_context_collection(
        self, task_id, reads, tasks_d5, sphere5
    ):
        """The same for the PSO and DAS tasks' trainable policies."""
        check_log_independent_of_context_collection(tasks_d5[task_id], reads, sphere5)

    def test_episode_fingerprints_golden(self, tasks_d5, suite_d5, golden_dir, regen_golden):
        # Pins every env's step path: logs and collected contexts for each
        # task, reward kind, policy and collection setting.
        golden_check(
            golden_dir / "episode_fingerprints.json",
            json.dumps(episode_fingerprints(tasks_d5, suite_d5), indent=1, sort_keys=True)
            + "\n",
            regen_golden,
        )

    def test_invalid_reward_aborts_episode(self, tasks_d5, sphere5):
        task = tasks_d5["de-operator-selection"]
        bad = rsl.parse("return 1.0 / ctx.gbest_improve, {}")
        with pytest.raises(InvalidRewardError):
            run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), bad, sphere5, 7, 500)

    def test_budget_validation(self, tasks_d5, sphere5):
        task = tasks_d5["de-operator-selection"]
        with pytest.raises(ValueError):
            run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), None, sphere5, 7, 5000)

    def test_episode_log_serializable(self, tasks_d5, sphere5):
        import json

        task = tasks_d5["pso-parameter-control"]
        log = run_episode(task, RandomPolicy(n_out=PSO_ACTION_SIZE), None, sphere5, 7, 500)
        doc = json.loads(json.dumps(log.to_dict()))
        assert doc["fe_used"] == log.fe_used

    @pytest.mark.slow
    def test_random_policy_improves_sphere_monte_carlo(self, suite_d2):
        """DERIVED oracle: 100 seeds on Sphere dim 2, fe 2000; the frozen
        random policy improves on the initial best in at least 95 of them."""
        inst = problems.make_instance("sphere", dimension=2, instance_seed=5)
        task = make_task("de-operator-selection", suite_d2, max_fes=2000)
        wins = 0
        for seed in range(100):
            log = run_episode(
                task, RandomPolicy(n_out=PSO_ACTION_SIZE), None, inst, seed, 2000
            )
            if log.y_final < log.y_initial:
                wins += 1
        assert wins >= 95


class TestHandcrafted:
    def test_de_acceptance_indicator(self):
        program = handcrafted_reward("de-operator-selection")
        rng = np.random.default_rng(1)
        ctx = random_context("de-operator-selection", rng)
        ctx["accepted"] = 1
        assert rsl.evaluate(program, ctx).total == 1.0
        ctx["accepted"] = 0
        assert rsl.evaluate(program, ctx).total == 0.0

    def test_pso_tie_gives_zero(self):
        program = handcrafted_reward("pso-parameter-control")
        rng = np.random.default_rng(1)
        ctx = random_context("pso-parameter-control", rng)
        ctx["gbest_val"] = ctx["pre_gbest"] = 1.25
        assert rsl.evaluate(program, ctx).total == 0.0

    def test_das_scaled_improvement(self):
        program = handcrafted_reward("algorithm-selection")
        rng = np.random.default_rng(1)
        ctx = random_context("algorithm-selection", rng)
        ctx["last_cost"] = 10.0
        ctx["current_gbest"] = 9.0
        ctx["cost_scale_factor"] = 10.0
        assert rsl.evaluate(program, ctx).total == pytest.approx(0.1)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            handcrafted_reward("nonsense-task")


class TestPolicies:
    def test_qtable_train_deterministic(self, tasks_d5, suite_d5):
        task = tasks_d5["de-operator-selection"]
        reward = handcrafted_reward(task.task_id)
        p1 = train_policy(task, reward, suite_d5.train_instances[:2], 3, 500, seed=9)
        p2 = train_policy(task, reward, suite_d5.train_instances[:2], 3, 500, seed=9)
        assert envs.policy_digest(p1) == envs.policy_digest(p2)
        p3 = train_policy(task, reward, suite_d5.train_instances[:2], 3, 500, seed=10)
        assert envs.policy_digest(p1) != envs.policy_digest(p3)

    def test_linear_train_deterministic(self, tasks_d5, suite_d5):
        task = tasks_d5["pso-parameter-control"]
        reward = handcrafted_reward(task.task_id)
        p1 = train_policy(task, reward, suite_d5.train_instances[:2], 10, 800, seed=9)
        p2 = train_policy(task, reward, suite_d5.train_instances[:2], 10, 800, seed=9)
        assert envs.policy_digest(p1) == envs.policy_digest(p2)

    def test_zero_reward_keeps_qtable_zero(self, tasks_d5, suite_d5, sphere5):
        task = tasks_d5["de-operator-selection"]
        zero = rsl.parse("return 0.0, {}")
        policy = train_policy(task, zero, [sphere5], 2, 500, seed=1)
        assert np.all(policy.q == 0.0)
        # greedy ties break toward the lowest action index
        assert policy.act(0, np.random.default_rng(0), learn=False) == 0

    def test_invalid_reward_propagates_from_training(self, tasks_d5, sphere5):
        task = tasks_d5["de-operator-selection"]
        bad = rsl.parse("return 1.0 / ctx.gbest_improve, {}")
        with pytest.raises(InvalidRewardError):
            train_policy(task, bad, [sphere5], 1, 500, seed=1)


class TestTaskConstruction:
    # Per task: its population, and the settings its fresh policy reports.
    TASK_SETTINGS = {
        "de-operator-selection": (
            50,
            {"kind": "qtable", "n_actions": 3, "lr": None, "gamma": 0.3, "epsilon": 0.4},
        ),
        "pso-parameter-control": (
            100,
            {"kind": "linear", "n_out": 35, "sigma": 0.2, "w": np.zeros((35, 5)).tolist()},
        ),
        "algorithm-selection": (
            50,
            {"kind": "qtable", "n_actions": 3, "lr": None, "gamma": 0.3, "epsilon": 0.4},
        ),
    }

    @pytest.mark.parametrize("task_id", envs.TASK_IDS)
    def test_task_settings(self, task_id, suite_d5, sphere5, monkeypatch):
        population, settings = self.TASK_SETTINGS[task_id]
        task = make_task(task_id, suite_d5)
        policy = make_policy(task).to_dict()
        assert {k: policy[k] for k in settings} == settings
        # max_fes defaults to 5000.
        with pytest.raises(ValueError, match="exceeds the task's MaxFEs"):
            run_episode(task, make_policy(task), None, sphere5, 7, 5001)
        # The population: the budget floor, and the first batch evaluated.
        with pytest.raises(ValueError, match="two populations"):
            run_episode(task, make_policy(task), None, sphere5, 7, 2 * population - 1)
        batches = []
        real_many = problems.evaluate_many

        def recording_many(inst, pts):
            batches.append(pts.shape[0])
            return real_many(inst, pts)

        monkeypatch.setattr("rewardevo.envs.episode.problems.evaluate_many", recording_many)
        run_episode(task, make_policy(task), None, sphere5, 7, 2 * population)
        assert batches[0] == population

    @pytest.mark.parametrize(("episodes", "rounds"), [(4, 1), (7, 1), (10, 2), (14, 2)])
    def test_pso_trains_in_rounds_of_one_plus_four(
        self, episodes, rounds, suite_d5, sphere5, monkeypatch
    ):
        """Each (1+lambda) round runs the parent and lambda = 4 perturbations
        on one episode seed; there are episodes // 5 rounds, at least one."""
        task = make_task("pso-parameter-control", suite_d5)
        seeds = []

        def recording_episode(task, policy, reward, instance, seed, fe_budget, **kw):
            seeds.append(seed)
            return envs.EpisodeLog(instance_id="stub", seed=seed)

        monkeypatch.setattr("rewardevo.envs.tasks.run_episode", recording_episode)
        zero = rsl.parse("return 0.0, {}")
        train_policy(task, zero, [sphere5], episodes, 500, seed=3)
        assert len(seeds) == 5 * rounds
        assert [len(set(seeds[5 * r : 5 * r + 5])) for r in range(rounds)] == [1] * rounds
        assert len(set(seeds)) == rounds

    def test_maxfes_floor(self, suite_d5):
        with pytest.raises(ValueError):
            make_task("de-operator-selection", suite_d5, max_fes=50)

    def test_unknown_task(self, suite_d5):
        with pytest.raises(ValueError):
            make_task("bogus", suite_d5)
