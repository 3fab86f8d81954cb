"""Desk-scale trainable meta-policies.

Discrete tasks use a tabular Q-learner over binned search features; the
35-parameter continuous task uses a bounded linear policy trained by
(1+lambda) parameter perturbation. A uniform random policy serves as the
untrained baseline. All are bit-reproducible given identical seeds and
inputs, and serialize to a dict for their digest.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Shared discrete featurization: progress(2) x improved(2) x diversity(2).
# Coarse on purpose: per-step rewards are sparse, so every cell must gather
# enough visits for its value estimate to separate the actions.
N_STATES = 8
RECENT_WINDOW = 20


def state_index(progress: float, improved: bool, diversity_ratio: float) -> int:
    pb = 1 if progress >= 0.5 else 0
    ib = 1 if improved else 0
    db = 1 if diversity_ratio >= 0.25 else 0
    return (pb * 2 + ib) * 2 + db


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(-np.sum(p * np.log(p)))


class QTablePolicy:
    """Tabular Q-learning with epsilon-greedy exploration; greedy ties break
    toward the lowest action index.

    With ``lr=None`` (the default) each cell uses the visitation-count step
    size 1/n, so Q converges like a running sample mean of the target; the
    per-step rewards in these tasks are sparse, and a constant step size
    would leave the value estimates noisier than the action gaps.
    """

    kind = "qtable"

    def __init__(self, n_actions: int, lr=None, gamma=0.3, epsilon=0.4):
        self.n_actions = int(n_actions)
        self.lr = None if lr is None else float(lr)
        self.gamma = float(gamma)
        self.epsilon = float(epsilon)
        self.q = np.zeros((N_STATES, self.n_actions))
        self.visits = np.zeros((N_STATES, self.n_actions), dtype=np.int64)
        self.training_step = 0
        self.recent_rewards: list[float] = []

    def act(self, state: int, rng: np.random.Generator, learn: bool) -> int:
        if learn and rng.random() < self.epsilon:
            return int(rng.integers(self.n_actions))
        return int(np.argmax(self.q[state]))  # first max = lowest index

    def update(self, state: int, action: int, reward: float, next_state: int):
        target = reward + self.gamma * float(np.max(self.q[next_state]))
        self.visits[state, action] += 1
        step = self.lr if self.lr is not None else 1.0 / self.visits[state, action]
        self.q[state, action] += step * (target - self.q[state, action])
        self.training_step += 1
        self.recent_rewards.append(float(reward))
        if len(self.recent_rewards) > RECENT_WINDOW:
            del self.recent_rewards[0]

    def de_fields(self, state: int) -> dict:
        """The DE task's agent-side context fields (``de_env.AGENT_FIELDS``)."""
        row = self.q[state]
        probs = np.exp(row - np.max(row))
        probs = probs / probs.sum()
        recent = self.recent_rewards
        return {
            "q_values": row.copy(),
            "greedy_action": int(np.argmax(row)),
            "q_span": float(np.max(row) - np.min(row)),
            "q_entropy": _entropy(probs),
            "recent_reward_mean": float(np.mean(recent)) if recent else 0.0,
            "recent_reward_max": float(np.max(recent)) if recent else 0.0,
            "training_step": self.training_step,
        }

    def das_fields(self, state: int, action: int, learn: bool) -> dict:
        """The algorithm-selection task's agent-side context fields
        (``das_env.AGENT_FIELDS``)."""
        row = self.q[state]
        greedy = int(np.argmax(row))
        eps = self.epsilon if learn else 0.0
        p_taken = eps / self.n_actions + (1.0 - eps) * (1.0 if action == greedy else 0.0)
        return {
            "policy_entropy": _entropy(
                np.full(self.n_actions, eps / self.n_actions)
                + (1.0 - eps) * (np.arange(self.n_actions) == greedy)
            ),
            "value_estimation": float(np.max(row)),
            "log_probability": float(np.log(max(p_taken, 1e-12))),
            "gamma": self.gamma,
            "learning_rate": self.lr,
        }

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_actions": self.n_actions,
            "lr": self.lr,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "q": self.q.tolist(),
            "visits": self.visits.tolist(),
            "training_step": self.training_step,
            "recent_rewards": list(self.recent_rewards),
        }


class RandomPolicy:
    """Uniform random actions; the untrained baseline. Produces no
    agent-side context fields."""

    kind = "random"

    def __init__(self, n_actions: int = 3, n_out: int = 0):
        self.n_actions = int(n_actions)
        self.n_out = int(n_out)
        self.training_step = 0

    def act(self, state: int, rng: np.random.Generator, learn: bool) -> int:
        return int(rng.integers(self.n_actions))

    def act_vector(self, features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, self.n_out)

    def update(self, *args):
        pass

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_actions": self.n_actions, "n_out": self.n_out}


N_FEATURES = 5  # bias, progress, improvement signal, diversity ratio, stagnation


class LinearGainPolicy:
    """Bounded linear policy: action = (tanh(W f) + 1) / 2 in (0, 1)^n_out.

    Trained offline by (1+lambda) perturbation search on episode return; no
    online updates inside an episode.
    """

    kind = "linear"

    def __init__(self, n_out: int, sigma: float = 0.2):
        self.n_out = int(n_out)
        self.sigma = float(sigma)
        self.w = np.zeros((self.n_out, N_FEATURES))
        self.training_step = 0
        self.training_progress = 0.0
        self.return_baseline = 0.0

    def act_vector(self, features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return 0.5 * (np.tanh(self.w @ features) + 1.0)

    def agent_fields(self, features: np.ndarray) -> dict:
        pre = self.w @ features
        act = 0.5 * (np.tanh(pre) + 1.0)
        p = np.clip(act, 1e-9, 1 - 1e-9)
        # Documented analogues: Gaussian log-density of the zero perturbation
        # and mean binary entropy of the bounded outputs.
        log_prob = float(
            -0.5 * self.n_out * math.log(2 * math.pi * self.sigma**2)
            - 0.5 * float(np.mean(pre**2)) / self.sigma**2
        )
        entropy = float(np.mean(-p * np.log(p) - (1 - p) * np.log(1 - p)))
        return {
            "log_prob": log_prob,
            "entropy": entropy,
            "training_progress": float(self.training_progress),
        }

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_out": self.n_out,
            "sigma": self.sigma,
            "w": self.w.tolist(),
            "training_step": self.training_step,
            "training_progress": self.training_progress,
            "return_baseline": self.return_baseline,
        }


def policy_digest(policy) -> str:
    payload = json.dumps(policy.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
