import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_check
from rewardevo import llm, rsl
from rewardevo.llm import (
    ChatExchange,
    LiveProvider,
    LlmParseError,
    MockProvider,
    ProviderConfig,
    ProviderError,
    ProviderExhaustedError,
    RecordingProvider,
    TemplateError,
    parse_individual,
    parse_kt_plan,
    render_prompt,
)

TASKS = ["de-operator-selection", "pso-parameter-control", "algorithm-selection"]


class TestTemplates:
    def test_every_template_loads_and_renders(self):
        for tid in llm.TEMPLATE_IDS:
            t = llm.get_template(tid)
            rendered = render_prompt(tid, {k: f"<{k}>" for k in t.required})
            assert rendered.strip()

    def test_missing_placeholder_is_error(self):
        with pytest.raises(TemplateError):
            render_prompt("init", {"task_metadata": "x"})

    def test_unknown_template_rejected(self):
        with pytest.raises(TemplateError):
            render_prompt("nope", {})

    def test_init_substitutes_prior_thought(self):
        out = render_prompt(
            "init",
            {
                "task_metadata": "METADATA",
                "prior_count": 1,
                "prior_individuals": "No. 1 Thought: REWARD THE IMPROVEMENT",
                "difference_rate": 95,
                "language_guide": llm.language_guide(),
            },
        )
        assert "REWARD THE IMPROVEMENT" in out
        assert "95 %" in out

    def test_m1_reflect_contains_all_failure_cases(self):
        cases = "\n".join(f"- case {name}" for name in ("Katsuura", "Schwefel", "Discus"))
        out = render_prompt(
            "m1_reflect",
            {
                "task_metadata": "M",
                "thought": "T",
                "code": "C",
                "failure_cases": cases,
            },
        )
        for name in ("Katsuura", "Schwefel", "Discus"):
            assert name in out

    def test_kt_reflect_asks_for_n_pathways(self):
        out = render_prompt(
            "kt_reflect",
            {"history": "(none)", "tasks_overview": "...", "n_direction": 3},
        )
        assert "Determine the 3 most valuable transfer operations" in out

    @pytest.mark.parametrize("template_id", llm.TEMPLATE_IDS)
    def test_rendered_template_golden(self, template_id, golden_dir, regen_golden):
        t = llm.get_template(template_id)
        rendered = render_prompt(
            template_id, {k: f"<<{k}>>" for k in sorted(t.required)}
        )
        golden_check(
            golden_dir / f"template_{template_id}.txt", rendered, regen_golden
        )


    def test_language_guide_names_exactly_the_builtins(self):
        """The guide's ``Builtins:`` sentence lists the evaluator's table; the
        guide's text is pinned by the prompt golden, so it cannot follow a
        change to the table on its own."""
        guide = llm.language_guide()
        sentence = guide[guide.index("Builtins:") + len("Builtins:"):]
        sentence = sentence[: sentence.index(".\n")]
        prose = {"plus", "matrix", "axis", "reductions", "m"}
        assert set(re.findall(r"[a-z][a-z0-9_]*", sentence)) - prose == rsl.BUILTINS


class TestParseIndividual:
    def test_prose_then_block(self):
        thought, code = parse_individual("idea text\n```rsl\nreturn 0.0, {}\n```")
        assert thought == "idea text"
        assert code == "return 0.0, {}"

    def test_first_rsl_block_wins(self):
        resp = "x\n```rsl\nreturn 1.0, {}\n```\n```rsl\nreturn 2.0, {}\n```"
        _, code = parse_individual(resp)
        assert code == "return 1.0, {}"

    def test_tagged_thought_block(self):
        resp = "```thought\nthe idea\n```\n```rsl\nreturn 0.0, {}\n```"
        thought, code = parse_individual(resp)
        assert thought == "the idea"
        assert code == "return 0.0, {}"

    def test_untagged_block_fallback(self):
        thought, code = parse_individual("p\n```\nreturn 3.0, {}\n```")
        assert code == "return 3.0, {}"

    def test_prose_only_is_error(self):
        with pytest.raises(LlmParseError):
            parse_individual("no code here at all")

    def test_empty_block_is_error(self):
        with pytest.raises(LlmParseError):
            parse_individual("x\n```rsl\n\n```")

    @given(st.text(max_size=500))
    @settings(max_examples=300, deadline=None)
    def test_never_crashes_on_arbitrary_text(self, text):
        try:
            parse_individual(text)
        except LlmParseError:
            pass


class TestParseKtPlan:
    def test_well_formed_two_entries(self):
        plan = json.dumps(
            [
                {
                    "source_task": TASKS[0],
                    "target_task": TASKS[1],
                    "rationale": "a",
                    "transfer_strategy_guidance": "s1",
                },
                {
                    "source_task": TASKS[1],
                    "target_task": TASKS[2],
                    "rationale": "b",
                    "transfer_strategy_guidance": "s2",
                },
            ]
        )
        out = parse_kt_plan(plan, TASKS)
        assert len(out) == 2
        assert out[0].strategy == "s1"

    def test_fenced_array_still_parsed(self):
        plan = (
            "Here you go:\n```json\n"
            + json.dumps(
                [
                    {
                        "source_task": TASKS[0],
                        "target_task": TASKS[2],
                        "rationale": "r",
                        "transfer_strategy_guidance": "s",
                    }
                ]
            )
            + "\n```"
        )
        assert len(parse_kt_plan(plan, TASKS)) == 1

    def test_unknown_source_dropped_rest_kept(self):
        plan = json.dumps(
            [
                {"source_task": "martian-task", "target_task": TASKS[0],
                 "rationale": "", "transfer_strategy_guidance": ""},
                {"source_task": TASKS[0], "target_task": TASKS[1],
                 "rationale": "", "transfer_strategy_guidance": ""},
            ]
        )
        out = parse_kt_plan(plan, TASKS)
        assert len(out) == 1
        assert out[0].source_task == TASKS[0]

    def test_long_paper_style_keys_accepted(self):
        plan = json.dumps(
            [
                {
                    "source_task_Metabbo_algorithm": TASKS[0],
                    "target_task_Metabbo_algorithm": TASKS[1],
                    "rationale": "similar dynamics",
                    "transfer_strategy_guidance": "rename fields",
                }
            ]
        )
        out = parse_kt_plan(plan, TASKS)
        assert len(out) == 1
        assert out[0].target_task == TASKS[1]

    def test_no_array_is_error(self):
        with pytest.raises(LlmParseError):
            parse_kt_plan("sorry, I cannot help with that", TASKS)


class TestMockProvider:
    def test_fifo_per_template(self):
        mock = MockProvider(
            [
                {"template_id": "m2", "response": "r1"},
                {"template_id": "m2", "response": "r2"},
                {"template_id": "c1", "response": "other"},
            ]
        )
        assert mock.complete("m2", "p").response_text == "r1"
        assert mock.complete("c1", "p").response_text == "other"
        assert mock.complete("m2", "p").response_text == "r2"

    def test_exhausted_queue_is_structured_error(self):
        mock = MockProvider([])
        with pytest.raises(ProviderExhaustedError):
            mock.complete("m2", "p")

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            '{"template_id": "init", "response": "hello"}\n\n'
            '{"template_id": "init", "response": "again"}\n'
        )
        mock = MockProvider.from_jsonl(path)
        assert mock.complete("init", "p").response_text == "hello"
        assert mock.consumed["init"] == 1

    def test_fast_forward_for_resume(self):
        mock = MockProvider(
            [{"template_id": "init", "response": f"r{i}"} for i in range(3)]
        )
        mock.fast_forward({"init": 2})
        assert mock.complete("init", "p").response_text == "r2"


class TestLiveProvider:
    def _provider(self, transport):
        return LiveProvider(
            ProviderConfig(endpoint="http://example.invalid", model="m"),
            transport=transport,
            sleep=lambda s: None,
        )

    def test_retry_on_429_then_success(self):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(json.loads(payload.decode()))
            if len(calls) == 1:
                return 429, "rate limited"
            return 200, json.dumps(
                {"choices": [{"message": {"content": "done"}}],
                 "usage": {"prompt_tokens": 5, "completion_tokens": 2}}
            )

        exchange = self._provider(transport).complete("init", "hello")
        assert exchange.attempt == 2
        assert exchange.response_text == "done"
        assert exchange.prompt_tokens == 5
        assert calls[0]["messages"][1] == {"role": "user", "content": "hello"}

    def test_exhausted_after_max_attempts(self):
        def transport(url, headers, payload, timeout):
            return 500, "boom"

        with pytest.raises(ProviderExhaustedError):
            self._provider(transport).complete("init", "hello")

    def test_transport_error_retried(self):
        state = {"n": 0}

        def transport(url, headers, payload, timeout):
            state["n"] += 1
            if state["n"] == 1:
                raise ProviderError("connection reset")
            return 200, json.dumps({"choices": [{"message": {"content": "ok"}}]})

        assert self._provider(transport).complete("init", "x").attempt == 2

    def test_temperature_override(self):
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(json.loads(payload.decode()))
            return 200, json.dumps({"choices": [{"message": {"content": "ok"}}]})

        self._provider(transport).complete("init", "x", temperature=0.3)
        assert seen["temperature"] == 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(endpoint="x", model="m", max_attempts=0)


class TestRecordingProvider:
    def test_appends_exchange_records(self, tmp_path):
        mock = MockProvider([{"template_id": "init", "response": "resp"}])
        path = tmp_path / "exchanges.jsonl"
        rec = RecordingProvider(mock, path)
        rec.complete("init", "the prompt")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 1
        assert set(lines[0]) == {"template_id", "prompt_sha256", "response", "attempt"}
        assert lines[0]["response"] == "resp"
        assert lines[0]["template_id"] == "init"
