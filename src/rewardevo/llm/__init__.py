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
    GENERATION_TEMPERATURE,
    REFLECTION_TEMPERATURE,
    TEMPLATE_IDS,
    TEMPLATE_TEMPERATURES,
    TEMPLATE_VERSION,
    PromptTemplate,
    TemplateError,
    get_template,
    language_guide,
    render_prompt,
)

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
