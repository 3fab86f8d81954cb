"""The five reflection-based variation operators plus the simple-mutation
ablation stand-in. Operators produce unevaluated candidates; evaluation and
selection happen in the generation loop.

Every provider call goes through _complete (temperature lookup, complete, a
provider error logged as a skipped call). Free-text reflections are
reflect_text; code-bearing replies go through request_individual: parse,
syntax-check, schema-validate, with up to ``provider.max_attempts`` calls,
each re-prompt carrying a one-line format reminder. A slot that fails every
attempt is skipped (the offspring pool shrinks for that pairing).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .. import llm, rsl
from ..envs import Metadata, Schema, get_schema
from .model import Individual

logger = logging.getLogger(__name__)

OPERATOR_ORDER = ("m1", "m2", "m3", "c1", "c2")

NO_HISTORY_MARKER = "(no history: this individual has no recorded ancestors)"
NO_ARCHIVE_MARKER = "no archive yet"


@dataclass
class Candidate:
    thought: str
    source: str
    program: rsl.RewardProgram
    operator: str
    parent_ids: tuple[str, ...]
    reflection: str = ""


# How the field dictionary names each FieldSpec kind.
_TYPE_LABELS = {
    "int": "int",
    "scalar": "float",
    "vector": "1-D array",
    "matrix": "2-D array",
}


def format_metadata(meta: Metadata) -> str:
    """The algorithm summary plus the task schema's field dictionary."""
    lines = [meta.c_alg, "", "Field dictionary (context fields the reward may read):"]
    for spec in sorted(get_schema(meta.task_id).fields, key=lambda f: f.name):
        label = _TYPE_LABELS[spec.kind] + (", optional" if spec.optional else "")
        lines.append(f"- {spec.name} ({label}): {spec.description}")
    return "\n".join(lines)


def format_individual(ind: Individual) -> str:
    fit = "invalid" if not ind.valid else f"{ind.fitness:.6g}"
    return f"Thought: {ind.thought}\nFitness: {fit}\nCode:\n{ind.source}"


def _complete(provider, template_id: str, prompt: str) -> str | None:
    """The reply text, or None when the provider fails."""
    try:
        exchange = provider.complete(
            template_id, prompt, llm.TEMPLATE_TEMPERATURES.get(template_id)
        )
    except llm.ProviderError as exc:
        logger.warning("%s: provider error: %s", template_id, exc)
        return None
    return exchange.response_text


def request_individual(
    provider, template_id: str, variables: dict, schema: Schema
) -> tuple[str, str, rsl.RewardProgram] | None:
    """(thought, source, program) or None after exhausting retries."""
    prompt = llm.render_prompt(template_id, variables)
    suffix = ""
    for attempt in range(1, provider.max_attempts + 1):
        text = _complete(provider, template_id, prompt + suffix)
        if text is None:
            return None  # nothing left to consume / transport dead
        try:
            thought, source = llm.parse_individual(text)
            program = rsl.parse(source)
            rsl.validate(program, schema.names())
            return thought, source, program
        except (llm.LlmParseError, rsl.RslParseError, rsl.RslValidationError) as exc:
            logger.debug("%s attempt %d rejected: %s", template_id, attempt, exc)
            suffix = f"\n\n{llm.FORMAT_REMINDER} Previous attempt failed: {exc}"
    logger.warning(
        "%s: all %d attempts rejected; slot skipped", template_id, provider.max_attempts
    )
    return None


def reflect_text(provider, template_id: str, variables: dict) -> str | None:
    """Free-text reflection call (no code expected)."""
    return _complete(provider, template_id, llm.render_prompt(template_id, variables))


def _common_vars(meta: Metadata) -> dict:
    return {
        "task_metadata": format_metadata(meta),
        "language_guide": llm.language_guide(),
    }


def _offspring(
    provider,
    template_id: str,
    meta: Metadata,
    operator: str,
    parent_ids: tuple[str, ...],
    variables: dict,
    reflection: str = "",
) -> Candidate | None:
    """Request one individual for ``meta``'s task with the common prompt
    variables plus ``variables``, tagged with its operator and parents."""
    result = request_individual(
        provider,
        template_id,
        {**_common_vars(meta), **variables},
        get_schema(meta.task_id),
    )
    if result is None:
        return None
    return Candidate(*result, operator, parent_ids, reflection=reflection)


def adapt_reward(
    provider, source_code: str, target_meta: Metadata, reflection: str, strategy: str
) -> tuple[str, str, rsl.RewardProgram] | None:
    """Knowledge-transfer execution: rewrite a reward for the target task."""
    return request_individual(
        provider,
        "kt_execute",
        {
            "source_code": source_code,
            "target_metadata": format_metadata(target_meta),
            "reflection": reflection,
            "strategy": strategy,
            "language_guide": llm.language_guide(),
        },
        get_schema(target_meta.task_id),
    )


def op_m1(
    parent: Individual,
    meta: Metadata,
    test_labels: list[str],
    k_failure: int,
    provider,
) -> Candidate | None:
    """Local reflection: diagnose the k worst test instances, then repair."""
    medians = parent.per_instance_medians or []
    order = sorted(range(len(medians)), key=lambda i: (-medians[i], i))
    worst = order[: max(k_failure, 0)]

    def label(i):
        return test_labels[i] if i < len(test_labels) else f"instance {i}"

    cases = "\n".join(
        f"- {label(i)}: normalized score {medians[i]:.6g}" for i in worst
    )
    reflection = reflect_text(
        provider,
        "m1_reflect",
        {
            "task_metadata": format_metadata(meta),
            "thought": parent.thought,
            "code": parent.source,
            "failure_cases": cases or "(no per-instance scores recorded)",
        },
    )
    if reflection is None:
        return None
    return _offspring(
        provider,
        "m1_mutate",
        meta,
        "m1",
        (parent.id,),
        {"code": parent.source, "reflection": reflection},
        reflection=reflection,
    )


def op_m2(
    parent: Individual,
    trace: list[Individual],
    meta: Metadata,
    provider,
) -> Candidate | None:
    """History reflection over the ancestor trace (oldest first, <= L)."""
    if trace:
        parts = []
        for i, anc in enumerate(trace, start=1):
            fit = "invalid" if not anc.valid else f"{anc.fitness:.6g}"
            parts.append(f"## Ancestor {i} (fitness {fit})\n{format_individual(anc)}")
        history_trace = "\n\n".join(parts)
    else:
        history_trace = NO_HISTORY_MARKER
    detailed = (
        ", ".join(f"{m:.4g}" for m in parent.per_instance_medians)
        if parent.per_instance_medians
        else "(none)"
    )
    return _offspring(
        provider,
        "m2",
        meta,
        "m2",
        (parent.id,),
        {
            "history_trace": history_trace,
            "fitness": f"{parent.fitness:.6g}",
            "fitness_detailed": detailed,
            "thought": parent.thought,
            "code": parent.source,
        },
    )


def summarize_archive(archive, generation: int, meta: Metadata, provider) -> str:
    """Refresh the cached global-archive summary at most once per generation."""
    if archive.summary_generation == generation and archive.summary_text is not None:
        return archive.summary_text
    if len(archive) == 0:
        summary = NO_ARCHIVE_MARKER
    else:
        entries = "\n\n".join(
            f"No. {i}\n{format_individual(ind)}"
            for i, ind in enumerate(archive.entries, start=1)
        )
        response = reflect_text(
            provider,
            "m3_reflect",
            {
                "task_metadata": format_metadata(meta),
                "archive_count": len(archive),
                "archive_entries": entries,
            },
        )
        if response is None:
            summary = NO_ARCHIVE_MARKER
        else:
            summary = _extract_summary(response)
    archive.summary_text = summary
    archive.summary_generation = generation
    return summary


def _extract_summary(response: str) -> str:
    m = re.search(r"```[ \t]*summary[ \t]*\r?\n(.*?)```", response, re.DOTALL)
    if m:
        return m.group(1).strip()
    return response.strip()


def op_m3(
    parent: Individual,
    summary: str,
    explored_count: int,
    meta: Metadata,
    provider,
) -> Candidate | None:
    """Global reflection: refine the parent using the archive summary."""
    return _offspring(
        provider,
        "m3_mutate",
        meta,
        "m3",
        (parent.id,),
        {
            "explored_count": explored_count,
            "summary": summary,
            "thought": parent.thought,
            "code": parent.source,
        },
    )


def op_c1(
    parent: Individual,
    niche_best: Individual,
    global_best: Individual,
    meta: Metadata,
    provider,
) -> Candidate | None:
    """Exploitative crossover with the niche best and the global best."""
    return _offspring(
        provider,
        "c1",
        meta,
        "c1",
        (parent.id, niche_best.id, global_best.id),
        {
            "thought": parent.thought,
            "code": parent.source,
            "niche_best_thought": niche_best.thought,
            "niche_best_code": niche_best.source,
            "global_best_thought": global_best.thought,
            "global_best_code": global_best.source,
        },
    )


def op_c2(
    parent: Individual,
    partner: Individual,
    meta: Metadata,
    provider,
) -> Candidate | None:
    """Exploratory crossover with an elite from a random distinct niche."""
    return _offspring(
        provider,
        "c2",
        meta,
        "c2",
        (parent.id, partner.id),
        {
            "reward_count": 2,
            "thought": parent.thought,
            "code": parent.source,
            "partner_thought": partner.thought,
            "partner_code": partner.source,
        },
    )


def op_m0(parent: Individual, meta: Metadata, provider) -> Candidate | None:
    """Iso-budget ablation stand-in: a minimal modify-this-reward prompt."""
    return _offspring(
        provider,
        "m0",
        meta,
        "m0_simple",
        (parent.id,),
        {"thought": parent.thought, "code": parent.source},
    )
