"""Coverage for degenerate operator inputs, single-niche runs and archive
capping."""

import json

import numpy as np
import pytest
import support

from rewardevo import llm, rsl
from rewardevo.envs import load_task_metadata
from rewardevo.evolution import Archive, RunConfig, op_c1, run_discovery
from rewardevo.evolution.loop import _State
from support import MagicEvaluator, ReplayBuilder, reward_response

DE = "de-operator-selection"
PSO = "pso-parameter-control"


def test_c1_degenerate_identity_inputs():
    cfg = RunConfig(tasks=[DE], niche_size=1, seed=0)
    state = _State(cfg)
    src = "return 0.4, {}"
    ind = state.new_individual(DE, "t", src, rsl.parse(src), 0, (), "init")
    ind.fitness = 0.4
    ind.status = "alive"
    mock = llm.MockProvider([{"template_id": "c1", "response": reward_response(0.1)}])
    cand = op_c1(ind, ind, ind, load_task_metadata(DE), mock)
    assert cand is not None
    assert cand.parent_ids == (ind.id, ind.id, ind.id)


def test_single_niche_skips_c2_and_kt(tmp_path, caplog):
    n = 2
    b = ReplayBuilder()
    b.add_reward("init")
    for _parent in range(n):
        b.add("m1_reflect", "r")
        b.add_reward("m1_mutate")
        b.add_reward("m2")
        b.add_reward("m3_mutate")
        b.add_reward("c1")
        # no c2 responses needed: operator is skipped with a single niche
    cfg = RunConfig(tasks=[DE], niche_size=n, g_max=1, seed=1)
    result = run_discovery(
        cfg, llm.MockProvider(b.script), MagicEvaluator(), tmp_path / "run"
    )
    offspring = [
        d
        for _t, _g, d in result.run_dir.iter_individuals()
        if d["generation_born"] == 1 and d["operator"] != "kt"
    ]
    assert len(offspring) == 4 * n  # c2 slot skipped per parent
    assert result.run_dir.read_transfers() == []
    assert len(result.niches[DE].members) == n


def test_archive_cap_fifo():
    cfg = RunConfig(tasks=[DE], niche_size=1, seed=0)
    state = _State(cfg)
    archive = Archive(cap=3)
    made = []
    for k in range(5):
        src = f"return 0.{k + 1}, {{}}"
        ind = state.new_individual(DE, "t", src, rsl.parse(src), 0, (), "init")
        archive.add(ind)
        made.append(ind.id)
    assert len(archive) == 3
    assert [e.id for e in archive.entries] == made[-3:]


def test_cli_resume_continues_run(tmp_path):
    from rewardevo import cli

    tasks = [PSO, "algorithm-selection"]
    cfg = {
        "tasks": tasks,
        "dimension": 2,
        "suite_seed": 3,
        "niche_size": 2,
        "g_max": 2,
        "gamma": 1,
        "fe_budget": 300,
        "train_episodes": 1,
        "seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    replay = tmp_path / "replay.jsonl"
    support.full_run_script(tasks, 2, 2).to_jsonl(replay)

    out = tmp_path / "run"
    rc = cli.main(
        ["discover", "--config", str(cfg_path), "--replay", str(replay),
         "--out", str(out), "--gmax", "1"]
    )
    assert rc == 0
    snapshots = sorted(p.name for p in (out / "snapshots").glob("*.json"))
    assert snapshots == ["gen-0.json", "gen-1.json"]
    # Resume and extend to g_max=2 with the same replay script.
    rc = cli.main(
        ["discover", "--resume", str(out), "--replay", str(replay), "--gmax", "2"]
    )
    assert rc == 0
    snapshots = sorted(p.name for p in (out / "snapshots").glob("*.json"))
    assert "gen-2.json" in snapshots
