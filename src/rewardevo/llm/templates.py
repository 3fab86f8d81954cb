"""Prompt template registry.

Templates are versioned text fixtures; placeholders are ``{name}`` tokens
substituted by render_prompt. Rendering with an incomplete variable map, or
a map that leaves a known placeholder unfilled, is an error — golden-file
tests pin every rendered template, so edits fail tests until the fixtures
are regenerated deliberately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

TEMPLATE_VERSION = "v1"
TEMPLATES_DIR = (
    Path(__file__).resolve().parent.parent / "fixtures" / "templates" / TEMPLATE_VERSION
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")

# Generation templates sample at high temperature; reflection and planning
# templates at low temperature.
GENERATION_TEMPERATURE = 1.0
REFLECTION_TEMPERATURE = 0.3

# Every template, in registry order, with its sampling temperature.
TEMPLATE_TEMPERATURES = {
    "init": GENERATION_TEMPERATURE,
    "m1_reflect": REFLECTION_TEMPERATURE,
    "m1_mutate": GENERATION_TEMPERATURE,
    "m2": GENERATION_TEMPERATURE,
    "m3_reflect": REFLECTION_TEMPERATURE,
    "m3_mutate": GENERATION_TEMPERATURE,
    "c1": GENERATION_TEMPERATURE,
    "c2": GENERATION_TEMPERATURE,
    "kt_reflect": REFLECTION_TEMPERATURE,
    "kt_execute": GENERATION_TEMPERATURE,
    "m0": GENERATION_TEMPERATURE,
}
TEMPLATE_IDS = tuple(TEMPLATE_TEMPERATURES)

# Placeholders that templates may reference; anything else in braces is
# literal text (e.g. the JSON example in kt_reflect).
_KNOWN_PLACEHOLDERS = {
    "task_metadata",
    "prior_count",
    "prior_individuals",
    "difference_rate",
    "language_guide",
    "thought",
    "code",
    "failure_cases",
    "reflection",
    "history_trace",
    "fitness",
    "fitness_detailed",
    "archive_count",
    "archive_entries",
    "explored_count",
    "summary",
    "niche_best_thought",
    "niche_best_code",
    "global_best_thought",
    "global_best_code",
    "reward_count",
    "partner_thought",
    "partner_code",
    "history",
    "tasks_overview",
    "n_direction",
    "source_code",
    "target_metadata",
    "strategy",
}


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    required: frozenset[str]


@lru_cache(maxsize=None)
def language_guide() -> str:
    return (TEMPLATES_DIR / "language_guide.txt").read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def get_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise TemplateError(f"unknown template id {template_id!r}")
    body = (TEMPLATES_DIR / f"{template_id}.txt").read_text(encoding="utf-8")
    required = frozenset(
        name for name in _PLACEHOLDER_RE.findall(body) if name in _KNOWN_PLACEHOLDERS
    )
    return PromptTemplate(template_id=template_id, body=body, required=required)


def render_prompt(template_id: str, variables: dict) -> str:
    """Substitute every required placeholder; missing or unfilled is an error."""
    template = get_template(template_id)
    missing = template.required - set(variables)
    if missing:
        raise TemplateError(
            f"template {template_id!r} missing placeholders: {sorted(missing)}"
        )

    def sub(match: re.Match) -> str:
        name = match.group(1)
        if name in _KNOWN_PLACEHOLDERS:
            if name not in variables:
                raise TemplateError(
                    f"template {template_id!r} has unfilled placeholder {name!r}"
                )
            return str(variables[name])
        return match.group(0)

    return _PLACEHOLDER_RE.sub(sub, template.body)
