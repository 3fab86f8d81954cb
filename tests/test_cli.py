import csv
import json

import pytest
import support

from rewardevo import cli, envs, rsl
from rewardevo.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROVIDER
from rewardevo.evolution import RunConfig
from support import MagicEvaluator, full_run_script, reward_response

PSO = "pso-parameter-control"
DAS = "algorithm-selection"
DE = "de-operator-selection"


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "tasks": [PSO, DAS],
        "dimension": 2,
        "suite_seed": 3,
        "niche_size": 2,
        "g_max": 1,
        "gamma": 1,
        "fe_budget": 300,
        "train_episodes": 1,
        "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# A replay line that is not JSON, and one without a template id.
MALFORMED_REPLAY_LINES = ["{x", json.dumps({"response": reward_response(0.1)})]


def write_replay(tmp_path, cfg):
    script = full_run_script(cfg["tasks"], cfg["niche_size"], cfg["g_max"])
    path = tmp_path / "replay.jsonl"
    script.to_jsonl(path)
    return path


class TestDiscover:
    def test_replay_run_and_reproducibility(self, tmp_path, small_config, capsys):
        cfg_path, cfg = small_config
        replay = write_replay(tmp_path, cfg)
        out1 = tmp_path / "out1"
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", str(replay),
             "--out", str(out1)]
        )
        assert rc == EXIT_OK
        assert (out1 / "report.csv").exists()
        assert (out1 / "transfers.jsonl").exists()
        assert (out1 / "exchanges.jsonl").exists()
        out2 = tmp_path / "out2"
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", str(replay),
             "--out", str(out2)]
        )
        assert rc == EXIT_OK
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_gmax_zero_is_config_error(self, tmp_path, small_config):
        cfg_path, cfg = small_config
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", "none.jsonl",
             "--gmax", "0", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    def test_missing_replay_is_config_error(self, tmp_path, small_config):
        cfg_path, _ = small_config
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay",
             str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    def test_no_provider_is_config_error(self, tmp_path, small_config):
        cfg_path, _ = small_config
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("line", MALFORMED_REPLAY_LINES, ids=["not-json", "no-template"])
    def test_malformed_replay_is_config_error(self, tmp_path, small_config, line, capsys):
        cfg_path, _ = small_config
        replay = tmp_path / "replay.jsonl"
        replay.write_text(line + "\n")
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", str(replay),
             "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        assert "replay script" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_replace_op_shows_in_lineage(self, tmp_path, small_config):
        cfg_path, cfg = small_config
        b = support.ReplayBuilder()
        for _t in cfg["tasks"]:
            b.add_reward("init")
        for _t in cfg["tasks"]:
            for _p in range(cfg["niche_size"]):
                b.add_reward("m0")
                b.add_reward("m2")
                b.add_reward("m3_mutate")
                b.add_reward("c1")
                b.add_reward("c2")
        b.add("kt_reflect", json.dumps([
            {"source_task": PSO, "target_task": DAS,
             "rationale": "", "transfer_strategy_guidance": ""}]))
        b.add_reward("kt_execute")
        replay = tmp_path / "replay_m0.jsonl"
        b.to_jsonl(replay)
        out = tmp_path / "out_m0"
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", str(replay),
             "--out", str(out), "--replace-op", "m1=m0"]
        )
        assert rc == EXIT_OK
        ops = set()
        for gen_dir in (out / "niches").glob("*/gen-1"):
            for f in gen_dir.glob("*.json"):
                ops.add(json.loads(f.read_text())["operator"])
        assert "m0_simple" in ops and "m1" not in ops


class TestResume:
    """A resumed run keeps the seed, KT switch and operator replacements it
    was started with; only --gmax extends it, and config.json records the
    extension."""

    @pytest.fixture()
    def saved_run(self, tmp_path, small_config):
        # The flags are checked before any snapshot is read, so the saved
        # config.json is all a rejected resume gets to see.
        _, cfg = small_config
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.json").write_text(json.dumps(RunConfig.from_dict(cfg).to_dict()))
        return run

    @pytest.mark.parametrize(
        "flags", [["--seed", "2"], ["--disable-kt"], ["--replace-op", "m1=m0"]]
    )
    def test_changed_setting_is_config_error(
        self, tmp_path, small_config, saved_run, flags, capsys
    ):
        replay = write_replay(tmp_path, small_config[1])
        before = (saved_run / "config.json").read_bytes()
        rc = cli.main(
            ["discover", "--resume", str(saved_run), "--replay", str(replay), *flags]
        )
        assert rc == EXIT_CONFIG
        assert "cannot change" in capsys.readouterr().err
        assert (saved_run / "config.json").read_bytes() == before

    @pytest.mark.parametrize("content", ["{not json", "[]"], ids=["not-json", "not-object"])
    def test_malformed_saved_config_is_config_error(
        self, tmp_path, small_config, saved_run, content, capsys
    ):
        (saved_run / "config.json").write_text(content)
        replay = write_replay(tmp_path, small_config[1])
        rc = cli.main(["discover", "--resume", str(saved_run), "--replay", str(replay)])
        assert rc == EXIT_CONFIG
        assert "saved config is not" in capsys.readouterr().err

    def test_repeated_settings_are_accepted(self, tmp_path, small_config):
        cfg_path, cfg = small_config
        script = full_run_script(cfg["tasks"], cfg["niche_size"], 2)
        for _ in range(2 * len(cfg["tasks"]) * cfg["niche_size"]):
            script.add_reward("m0")
        replay = tmp_path / "replay.jsonl"
        script.to_jsonl(replay)
        out = tmp_path / "run"
        fixed = ["--seed", "1", "--disable-kt", "--replace-op", "m1=m0"]
        rc = cli.main(
            ["discover", "--config", str(cfg_path), "--replay", str(replay),
             "--out", str(out), *fixed]
        )
        assert rc == EXIT_OK
        rc = cli.main(
            ["discover", "--resume", str(out), "--replay", str(replay),
             "--gmax", "2", *fixed]
        )
        assert rc == EXIT_OK
        assert (out / "snapshots" / "gen-2.json").exists()
        # The extended g_max is recorded; a resume that changes nothing
        # leaves config.json byte for byte.
        saved = (out / "config.json").read_bytes()
        assert json.loads(saved)["g_max"] == 2
        rc = cli.main(
            ["discover", "--resume", str(out), "--replay", str(replay),
             "--gmax", "2", *fixed]
        )
        assert rc == EXIT_OK
        assert (out / "config.json").read_bytes() == saved


class TestEvalReward:
    def test_handcrafted_reward_search_profile(self, tmp_path, capsys):
        rc = cli.main(
            ["eval-reward",
             str(envs.tasks.FIXTURES_DIR / "rewards" / "handcrafted" / f"{PSO}.rsl"),
             "--profile", "search", "--dimension", "2", "--suite-seed", "3",
             "--fe-budget", "300", "--train-episodes", "0"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(out[-1])
        assert doc["invalid_flag"] is False
        assert doc["task_id"] == PSO
        assert len(doc["score_matrix"]) == 16
        assert all(len(row) == 3 for row in doc["score_matrix"])

    @pytest.mark.slow
    def test_bundled_discovered_de_reward_is_schema_valid_and_finite(
        self, tmp_path, capsys
    ):
        path = envs.tasks.FIXTURES_DIR / "rewards" / "discovered" / f"{DE}.rsl"
        rc = cli.main(
            ["eval-reward", str(path), "--profile", "search", "--dimension", "2",
             "--suite-seed", "3", "--fe-budget", "200", "--train-episodes", "0"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["invalid_flag"] is False
        assert doc["fitness"] is not None

    def test_final_profile_has_51_columns(self, tmp_path, capsys):
        path = envs.tasks.FIXTURES_DIR / "rewards" / "handcrafted" / f"{PSO}.rsl"
        rc = cli.main(
            ["eval-reward", str(path), "--profile", "final", "--dimension", "2",
             "--suite-seed", "3", "--fe-budget", "300", "--train-episodes", "0"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert all(len(row) == 51 for row in doc["score_matrix"])

    def test_malformed_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.rsl"
        bad.write_text("this is not a reward program")
        rc = cli.main(["eval-reward", str(bad), "--task", PSO])
        assert rc == EXIT_CONFIG

    def test_foreign_fields_rejected(self, tmp_path):
        bad = tmp_path / "foreign.rsl"
        bad.write_text("return ctx.gbest_cost, {}")  # DE field
        rc = cli.main(["eval-reward", str(bad), "--task", PSO])
        assert rc == EXIT_CONFIG


class TestTransfer:
    def _source_file(self, tmp_path):
        src = tmp_path / "source.rsl"
        rsl.write_reward_file(
            src,
            "if ctx.gbest_val < ctx.pre_gbest:\n    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}",
            PSO,
            thought="improvement indicator",
        )
        return src

    def test_valid_adaptation_written_with_both_fitnesses(self, tmp_path, capsys):
        src = self._source_file(tmp_path)
        replay = tmp_path / "replay.jsonl"
        adapted = (
            "adapted\n```rsl\nif ctx.current_gbest < ctx.last_cost:\n"
            "    r = 1.0\nelse:\n    r = 0.0\nreturn r, {}\n```"
        )
        replay.write_text(json.dumps({"template_id": "kt_execute", "response": adapted}) + "\n")
        out = tmp_path / "adapted.rsl"
        rc = cli.main(
            ["transfer", str(src), "--target-task", DAS, "--replay", str(replay),
             "--dimension", "2", "--suite-seed", "3", "--fe-budget", "300",
             "--train-episodes", "0", "--out", str(out)]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["adapted_fitness"] is not None
        assert doc["anchor_fitness"] is not None
        program, sidecar = rsl.read_reward_file(out)
        assert program.task_hint == DAS
        assert not rsl.schema_errors(program, envs.get_schema(DAS).names())

    def test_failed_adaptation_writes_nothing(self, tmp_path):
        src = self._source_file(tmp_path)
        replay = tmp_path / "replay.jsonl"
        bad = "x\n```rsl\nreturn ctx.gbest_val, {}\n```"  # PSO field on DAS
        replay.write_text(
            "\n".join(json.dumps({"template_id": "kt_execute", "response": bad}) for _ in range(3))
            + "\n"
        )
        out = tmp_path / "adapted.rsl"
        rc = cli.main(
            ["transfer", str(src), "--target-task", DAS, "--replay", str(replay),
             "--out", str(out)]
        )
        assert rc == EXIT_PROVIDER
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
    def test_bad_provider_config_is_config_error(self, tmp_path, content, capsys):
        src = self._source_file(tmp_path)
        provider_cfg = tmp_path / "provider.json"
        if content is not None:
            provider_cfg.write_text(content)
        rc = cli.main(
            ["transfer", str(src), "--target-task", DAS,
             "--provider-config", str(provider_cfg)]
        )
        assert rc == EXIT_CONFIG
        assert "provider config" in capsys.readouterr().err

    @pytest.mark.parametrize("line", MALFORMED_REPLAY_LINES, ids=["not-json", "no-template"])
    def test_malformed_replay_is_config_error(self, tmp_path, line, capsys):
        src = self._source_file(tmp_path)
        replay = tmp_path / "replay.jsonl"
        replay.write_text(line + "\n")
        out = tmp_path / "adapted.rsl"
        rc = cli.main(
            ["transfer", str(src), "--target-task", DAS, "--replay", str(replay),
             "--out", str(out)]
        )
        assert rc == EXIT_CONFIG
        assert "replay script" in capsys.readouterr().err
        assert not out.exists()

    def test_same_task_rejected(self, tmp_path):
        src = self._source_file(tmp_path)
        rc = cli.main(["transfer", str(src), "--target-task", PSO])
        assert rc == EXIT_CONFIG


class TestReport:
    @pytest.fixture()
    def run_dir(self, tmp_path, small_config):
        cfg_path, cfg = small_config
        replay = write_replay(tmp_path, cfg)
        out = tmp_path / "run"
        assert (
            cli.main(
                ["discover", "--config", str(cfg_path), "--replay", str(replay),
                 "--out", str(out)]
            )
            == EXIT_OK
        )
        return out

    def test_trajectory_and_operators(self, run_dir, tmp_path):
        rc = cli.main(["report", str(run_dir)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader((run_dir / "trajectory.csv").open()))
        tasks = {r["task"] for r in rows}
        assert tasks == {PSO, DAS}
        per_task = {}
        for r in rows:
            per_task.setdefault(r["task"], []).append(r["best_so_far"])
        for series in per_task.values():
            assert len(series) == 2  # gen 0 and gen 1
            vals = [float(v) for v in series if v]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        ops = list(csv.DictReader((run_dir / "operators.csv").open()))
        tags = {r["operator"] for r in ops}
        assert {"expert", "init", "m1", "m2", "m3", "c1", "c2"} <= tags

    def test_sne_against_itself_is_one(self, run_dir):
        rc = cli.main(["report", str(run_dir), "--baseline", str(run_dir)])
        assert rc == EXIT_OK
        rows = list(csv.reader((run_dir / "sne.csv").open()))
        assert rows[-1][0] == "ALL"
        assert float(rows[-1][3]) == 1.0

    def test_missing_directory_is_clean_error(self, tmp_path):
        rc = cli.main(["report", str(tmp_path / "nope")])
        assert rc == EXIT_CONFIG
