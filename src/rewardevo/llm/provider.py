"""Chat-completion providers: a live JSON-over-HTTPS client with retries and
rate limiting, and a deterministic replay mock for tests and reproducible
runs.

Wire format: request {model, messages: [{role, content}...], temperature};
the completion is read from choices[0].message.content.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

DEFAULT_SYSTEM_PROMPT = (
    "You are an expert reward engineer for learned black-box optimization. "
    "Follow the requested output format exactly."
)

FORMAT_REMINDER = (
    "Reminder: reply with prose first, then exactly one fenced code block "
    "tagged rsl containing a complete, valid program in the reward language."
)


class ProviderError(Exception):
    """Transport failure, bad status, or empty completion after retries."""


class ProviderExhaustedError(ProviderError):
    """Mock replay queue for the template is empty, or retries ran out."""


@dataclass
class ChatExchange:
    template_id: str
    rendered_prompt: str
    response_text: str
    provider_tag: str
    latency: float
    attempt: int
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str
    model: str
    temperature: float = 1.0
    max_attempts: int = 3
    timeout: float = 60.0
    requests_per_minute: int = 60
    credential_env: str = "REWARDEVO_API_KEY"
    system_prompt: str = DEFAULT_SYSTEM_PROMPT

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.requests_per_minute < 1:
            raise ValueError("requests_per_minute must be >= 1")


def _default_transport(url: str, headers: dict, payload: bytes, timeout: float):
    req = urllib.request.Request(url, data=payload, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ProviderError(f"transport failure: {exc}")


class LiveProvider:
    """HTTP chat-completion client with exponential-backoff retries and a
    global minimum inter-request interval."""

    def __init__(self, config: ProviderConfig, transport=None, sleep=time.sleep):
        self.config = config
        self.transport = transport or _default_transport
        self._sleep = sleep
        self._lock = threading.Lock()
        self._last_request = 0.0

    @property
    def tag(self) -> str:
        return f"live:{self.config.model}"

    @property
    def max_attempts(self) -> int:
        return self.config.max_attempts

    def _throttle(self):
        interval = 60.0 / self.config.requests_per_minute
        with self._lock:
            now = time.monotonic()
            wait = self._last_request + interval - now
            if wait > 0:
                self._sleep(wait)
                now = time.monotonic()
            self._last_request = now

    def complete(
        self, template_id: str, prompt: str, temperature: float | None = None
    ) -> ChatExchange:
        key = os.environ.get(self.config.credential_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = json.dumps(
            {
                "model": self.config.model,
                "messages": [
                    {"role": "system", "content": self.config.system_prompt},
                    {"role": "user", "content": prompt},
                ],
                "temperature": (
                    self.config.temperature if temperature is None else temperature
                ),
            }
        ).encode("utf-8")

        last_error = "no attempts made"
        for attempt in range(1, self.config.max_attempts + 1):
            self._throttle()
            start = time.monotonic()
            try:
                status, body = self.transport(
                    self.config.endpoint, headers, payload, self.config.timeout
                )
            except ProviderError as exc:
                last_error = str(exc)
                logger.warning("attempt %d: %s", attempt, last_error)
                self._sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
                continue
            latency = time.monotonic() - start
            if status != 200:
                last_error = f"HTTP {status}"
                logger.warning("attempt %d: %s", attempt, last_error)
                self._sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
                continue
            try:
                doc = json.loads(body)
                content = doc["choices"][0]["message"]["content"]
                usage = doc.get("usage", {})
            except (json.JSONDecodeError, KeyError, IndexError, TypeError):
                last_error = "malformed completion body"
                logger.warning("attempt %d: %s", attempt, last_error)
                continue
            if not content:
                last_error = "empty completion"
                continue
            return ChatExchange(
                template_id=template_id,
                rendered_prompt=prompt,
                response_text=content,
                provider_tag=self.tag,
                latency=latency,
                attempt=attempt,
                prompt_tokens=usage.get("prompt_tokens"),
                completion_tokens=usage.get("completion_tokens"),
            )
        raise ProviderExhaustedError(
            f"provider failed after {self.config.max_attempts} attempts: {last_error}"
        )


class MockProvider:
    """Deterministic replay: per-template FIFO queues of scripted responses.

    Script entries are {"template_id": ..., "response": ...}; consumption
    order within a template is the script order. Queue exhaustion is a
    structured error.
    """

    max_attempts = 3

    def __init__(self, script: list[dict]):
        self.queues: dict[str, deque] = defaultdict(deque)
        for entry in script:
            self.queues[entry["template_id"]].append(entry["response"])
        self.consumed: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockProvider":
        script = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                script.append(json.loads(line))
        return cls(script)

    @property
    def tag(self) -> str:
        return "mock"

    def fast_forward(self, consumed: dict[str, int]) -> None:
        """Drop already-consumed responses (resume support)."""
        with self._lock:
            for template_id, count in consumed.items():
                q = self.queues[template_id]
                for _ in range(min(count, len(q))):
                    q.popleft()
                self.consumed[template_id] += count

    def complete(
        self, template_id: str, prompt: str, temperature: float | None = None
    ) -> ChatExchange:
        with self._lock:
            q = self.queues.get(template_id)
            if not q:
                raise ProviderExhaustedError(
                    f"mock replay queue exhausted for template {template_id!r}"
                )
            response = q.popleft()
            self.consumed[template_id] += 1
        return ChatExchange(
            template_id=template_id,
            rendered_prompt=prompt,
            response_text=response,
            provider_tag=self.tag,
            latency=0.0,
            attempt=1,
        )


class RecordingProvider:
    """Wraps a provider and appends every answered request to a JSONL file
    (template_id, prompt hash, response, attempt); a request that raises
    leaves no line."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()

    @property
    def tag(self) -> str:
        return self.inner.tag

    @property
    def max_attempts(self) -> int:
        return self.inner.max_attempts

    @property
    def consumed(self):
        return getattr(self.inner, "consumed", {})

    def fast_forward(self, consumed: dict[str, int]) -> None:
        if hasattr(self.inner, "fast_forward"):
            self.inner.fast_forward(consumed)

    def complete(
        self, template_id: str, prompt: str, temperature: float | None = None
    ) -> ChatExchange:
        exchange = self.inner.complete(template_id, prompt, temperature)
        record = {
            "template_id": exchange.template_id,
            "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "response": exchange.response_text,
            "attempt": exchange.attempt,
        }
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return exchange
