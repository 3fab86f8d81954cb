"""Chat-completion providers, the prompt-template registry, and response
parsing."""

from .parsing import KtPathway, LlmParseError, parse_individual, parse_kt_plan
from .provider import (
    DEFAULT_SYSTEM_PROMPT,
    FORMAT_REMINDER,
    ChatExchange,
    LiveProvider,
    MockProvider,
    ProviderConfig,
    ProviderError,
    ProviderExhaustedError,
    RecordingProvider,
)
from .templates import (
    TEMPLATE_IDS,
    TEMPLATE_VERSION,
    PromptTemplate,
    TemplateError,
    get_template,
    language_guide,
    render_prompt,
)

# Generation templates sample at high temperature; reflection and planning
# templates at low temperature.
GENERATION_TEMPERATURE = 1.0
REFLECTION_TEMPERATURE = 0.3

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

__all__ = [
    "KtPathway",
    "LlmParseError",
    "parse_individual",
    "parse_kt_plan",
    "DEFAULT_SYSTEM_PROMPT",
    "FORMAT_REMINDER",
    "ChatExchange",
    "LiveProvider",
    "MockProvider",
    "ProviderConfig",
    "ProviderError",
    "ProviderExhaustedError",
    "RecordingProvider",
    "TEMPLATE_IDS",
    "TEMPLATE_VERSION",
    "PromptTemplate",
    "TemplateError",
    "get_template",
    "language_guide",
    "render_prompt",
    "GENERATION_TEMPERATURE",
    "REFLECTION_TEMPERATURE",
    "TEMPLATE_TEMPERATURES",
]
