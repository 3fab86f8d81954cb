"""Seeded, deterministic implementations of the 24 standard continuous
benchmark families on [-5, 5]^d, plus the fixed 8/16 train-test suite split.

Every instance is fully materialized at construction (shift vector, rotation
matrices, per-family extras), so evaluation is pure and safe to call from any
number of workers. The seeding scheme is part of the contract: instance
parameters are drawn from ``numpy.random.PCG64(mix64(instance_seed, family
index))`` in the fixed order f_opt, base shift, R, Q, family extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LOWER_BOUND = -5.0
UPPER_BOUND = 5.0

# Families in their conventional catalogue order (index 1..24).
FUNCTION_IDS = (
    "sphere",
    "ellipsoidal_separable",
    "rastrigin_separable",
    "bueche_rastrigin",
    "linear_slope",
    "attractive_sector",
    "step_ellipsoidal",
    "rosenbrock",
    "rosenbrock_rotated",
    "ellipsoidal_high_cond",
    "discus",
    "bent_cigar",
    "sharp_ridge",
    "different_powers",
    "rastrigin_multimodal",
    "weierstrass",
    "schaffers_f7",
    "schaffers_high_cond",
    "griewank_rosenbrock",
    "schwefel",
    "gallagher_101_peaks",
    "gallagher_21_peaks",
    "katsuura",
    "lunacek_bi_rastrigin",
)

DISPLAY_NAMES = {
    "sphere": "Sphere",
    "ellipsoidal_separable": "Ellipsoidal separable",
    "rastrigin_separable": "Rastrigin separable",
    "bueche_rastrigin": "Buche Rastrigin",
    "linear_slope": "Linear Slope",
    "attractive_sector": "Attractive Sector",
    "step_ellipsoidal": "Step Ellipsoidal",
    "rosenbrock": "Rosenbrock original",
    "rosenbrock_rotated": "Rosenbrock rotated",
    "ellipsoidal_high_cond": "Ellipsoidal high cond",
    "discus": "Discus",
    "bent_cigar": "Bent Cigar",
    "sharp_ridge": "Sharp Ridge",
    "different_powers": "Different Powers",
    "rastrigin_multimodal": "Rastrigin multimodal",
    "weierstrass": "Weierstrass",
    "schaffers_f7": "Schaffers F7",
    "schaffers_high_cond": "Schaffers high cond",
    "griewank_rosenbrock": "Composite Grie rosen",
    "schwefel": "Schwefel",
    "gallagher_101_peaks": "Gallagher 101-peaks",
    "gallagher_21_peaks": "Gallagher 21Peaks",
    "katsuura": "Katsuura",
    "lunacek_bi_rastrigin": "Lunacek bi Rastrigin",
}

# Training families: the 8 not reserved for held-out testing.
TRAIN_FAMILIES = (
    "sphere",
    "ellipsoidal_separable",
    "rastrigin_separable",
    "linear_slope",
    "rastrigin_multimodal",
    "weierstrass",
    "schaffers_f7",
    "gallagher_101_peaks",
)

# Held-out test families, in report order.
TEST_FAMILIES = (
    "attractive_sector",
    "bent_cigar",
    "bueche_rastrigin",
    "griewank_rosenbrock",
    "different_powers",
    "discus",
    "ellipsoidal_high_cond",
    "gallagher_21_peaks",
    "katsuura",
    "lunacek_bi_rastrigin",
    "rosenbrock",
    "rosenbrock_rotated",
    "schaffers_high_cond",
    "schwefel",
    "sharp_ridge",
    "step_ellipsoidal",
)

_FAMILY_INDEX = {fid: i + 1 for i, fid in enumerate(FUNCTION_IDS)}

_MASK64 = (1 << 64) - 1


def mix64(a: int, b: int = 0) -> int:
    """splitmix64 of a ^ rot(b); portable 64-bit seed mixing."""
    x = (int(a) ^ (int(b) * 0x9E3779B97F4A7C15)) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class ContractViolation(ValueError):
    """Caller broke an interface precondition (e.g. dimension mismatch)."""


@dataclass(eq=False)
class ProblemInstance:
    """One materialized benchmark function; immutable after construction."""

    function_id: str
    dimension: int
    instance_seed: int
    lower_bound: float
    upper_bound: float
    optimum_point: np.ndarray
    optimum_value: float
    params: dict = field(repr=False)

    @property
    def name(self) -> str:
        return DISPLAY_NAMES[self.function_id]


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Seeded orthogonal matrix: QR of a Gaussian draw, sign-fixed columns."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _osz(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0.0
    xv = x[nz]
    ax = np.log(np.abs(xv))
    c1 = np.where(xv > 0, 10.0, 5.5)
    c2 = np.where(xv > 0, 7.9, 3.1)
    out[nz] = np.sign(xv) * np.exp(ax + 0.049 * (np.sin(c1 * ax) + np.sin(c2 * ax)))
    return out


def _asy(z: np.ndarray, beta: float, dim: int) -> np.ndarray:
    idx = np.arange(dim) / max(dim - 1, 1)
    expo = 1.0 + beta * idx * np.sqrt(np.maximum(z, 0.0))
    return np.where(z > 0, np.power(np.maximum(z, 0.0), expo), z)


def _lam(alpha: float, dim: int) -> np.ndarray:
    return alpha ** (0.5 * np.arange(dim) / max(dim - 1, 1))


def _pen(x: np.ndarray) -> np.ndarray:
    return np.sum(np.maximum(0.0, np.abs(x) - 5.0) ** 2, axis=-1)


def make_instance(
    function_id: str,
    dimension: int = 10,
    instance_seed: int = 1,
) -> ProblemInstance:
    """Materialize one instance from its seeded draws."""
    if function_id not in _FAMILY_INDEX:
        raise ContractViolation(f"unknown function_id {function_id!r}")
    if dimension < 2:
        raise ContractViolation("dimension must be >= 2")
    dim = int(dimension)
    rng = np.random.Generator(
        np.random.PCG64(mix64(instance_seed, _FAMILY_INDEX[function_id]))
    )

    f_opt = float(np.round(rng.uniform(-100.0, 100.0), 2))
    base = rng.uniform(-4.0, 4.0, size=dim)
    rot_r = _rotation(rng, dim)
    rot_q = _rotation(rng, dim)

    params: dict = {"R": rot_r, "Q": rot_q}
    x_opt = base

    if function_id == "linear_slope":
        x_opt = 5.0 * np.where(base >= 0, 1.0, -1.0)
        params["s"] = np.sign(x_opt) * 10.0 ** (np.arange(dim) / max(dim - 1, 1))
    elif function_id == "rosenbrock":
        x_opt = base * 0.75
    elif function_id in ("rosenbrock_rotated", "griewank_rosenbrock"):
        c = max(1.0, np.sqrt(dim) / 8.0)
        x_opt = rot_r.T @ np.full(dim, 0.5 / c)
    elif function_id == "schwefel":
        bern = np.where(base >= 0, 1.0, -1.0)
        x_opt = 4.2096874633 * bern / 2.0
        params["bern"] = bern
    elif function_id == "lunacek_bi_rastrigin":
        x_opt = np.where(base >= 0, 1.25, -1.25)
    elif function_id in ("gallagher_101_peaks", "gallagher_21_peaks"):
        n_peaks = 101 if function_id == "gallagher_101_peaks" else 21
        span = 5.0 if n_peaks == 101 else 4.9
        if n_peaks == 21:
            x_opt = base * (3.92 / 4.0)
        w = np.empty(n_peaks)
        w[0] = 10.0
        w[1:] = 1.1 + 8.0 * np.arange(n_peaks - 1) / (n_peaks - 2)
        alpha = np.empty(n_peaks)
        alpha[0] = 1000.0 if n_peaks == 101 else 1000.0**2
        alpha[1:] = rng.permutation(
            1000.0 ** (2.0 * np.arange(n_peaks - 1) / (n_peaks - 2))
        )
        peaks = rng.uniform(-span, span, size=(n_peaks, dim))
        peaks[0] = x_opt
        # M_i = R^T diag(C_i) R with the conditioning diagonal permuted per peak.
        mats = np.empty((n_peaks, dim, dim))
        for i in range(n_peaks):
            diag = _lam(alpha[i], dim) / alpha[i] ** 0.25
            diag = diag[rng.permutation(dim)]
            mats[i] = rot_r.T @ (diag[:, None] * rot_r)
        params.update({"w": w, "peaks": peaks, "mats": mats})

    inst = ProblemInstance(
        function_id=function_id,
        dimension=dim,
        instance_seed=int(instance_seed),
        lower_bound=LOWER_BOUND,
        upper_bound=UPPER_BOUND,
        optimum_point=np.asarray(x_opt, dtype=float),
        optimum_value=f_opt,
        params=params,
    )
    inst.optimum_point.setflags(write=False)
    return inst


def _raw(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """g(x) + boundary penalty, with g(optimum_point) == 0 by construction.

    ``x`` has shape (n, dim); returns shape (n,).
    """
    fid = inst.function_id
    dim = inst.dimension
    xo = inst.optimum_point
    rot_r = inst.params["R"]
    rot_q = inst.params["Q"]

    if fid == "sphere":
        return np.sum((x - xo) ** 2, axis=1)

    if fid == "ellipsoidal_separable":
        z = _osz(x - xo)
        return np.sum(10.0 ** (6.0 * np.arange(dim) / max(dim - 1, 1)) * z**2, axis=1)

    if fid == "rastrigin_separable":
        z = _asy(_osz(x - xo), 0.2, dim) * _lam(10.0, dim)
        return 10.0 * (dim - np.sum(np.cos(2 * np.pi * z), axis=1)) + np.sum(
            z**2, axis=1
        )

    if fid == "bueche_rastrigin":
        z = _osz(x - xo)
        expo = 0.5 * np.arange(dim) / max(dim - 1, 1)
        s = 10.0**expo
        boost = (z > 0) & (np.arange(dim) % 2 == 1)
        z = np.where(boost, 10.0 ** (expo + 1), s) * z
        g = 10.0 * (dim - np.sum(np.cos(2 * np.pi * z), axis=1)) + np.sum(z**2, axis=1)
        return g + 100.0 * _pen(x)

    if fid == "linear_slope":
        s = inst.params["s"]
        z = np.where(x * xo < 25.0, x, xo)
        return np.sum(5.0 * np.abs(s) - s * z, axis=1)

    if fid == "attractive_sector":
        z = ((x - xo) @ rot_r.T * _lam(10.0, dim)) @ rot_q.T
        s = np.where(z * xo > 0, 100.0, 1.0)
        return _osz(np.sum((s * z) ** 2, axis=1)) ** 0.9

    if fid == "step_ellipsoidal":
        zhat = (x - xo) @ rot_r.T * _lam(10.0, dim)
        ztil = np.where(
            np.abs(zhat) > 0.5, np.floor(0.5 + zhat), np.floor(0.5 + 10.0 * zhat) / 10.0
        )
        z = ztil @ rot_q.T
        body = 100.0 * np.sum(
            10.0 ** (2.0 * np.arange(dim) / max(dim - 1, 1)) * z**2, axis=1
        )
        g = 0.1 * np.maximum(np.abs(zhat[:, 0]) / 1e4, body)
        return g + _pen(x)

    if fid in ("rosenbrock", "rosenbrock_rotated"):
        c = max(1.0, np.sqrt(dim) / 8.0)
        if fid == "rosenbrock":
            z = c * (x - xo) + 1.0
        else:
            z = c * (x @ rot_r.T) + 0.5
        a, b = z[:, :-1], z[:, 1:]
        return np.sum(100.0 * (a**2 - b) ** 2 + (a - 1.0) ** 2, axis=1)

    if fid == "ellipsoidal_high_cond":
        z = _osz((x - xo) @ rot_r.T)
        return np.sum(10.0 ** (6.0 * np.arange(dim) / max(dim - 1, 1)) * z**2, axis=1)

    if fid == "discus":
        z = _osz((x - xo) @ rot_r.T)
        return 1e6 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=1)

    if fid == "bent_cigar":
        z = _asy((x - xo) @ rot_r.T, 0.5, dim) @ rot_r.T
        return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=1)

    if fid == "sharp_ridge":
        z = ((x - xo) @ rot_r.T * _lam(10.0, dim)) @ rot_q.T
        return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=1))

    if fid == "different_powers":
        z = (x - xo) @ rot_r.T
        expo = 2.0 + 4.0 * np.arange(dim) / max(dim - 1, 1)
        return np.sqrt(np.sum(np.abs(z) ** expo, axis=1))

    if fid == "rastrigin_multimodal":
        z = _asy(_osz((x - xo) @ rot_r.T), 0.2, dim) @ rot_q.T
        z = (z * _lam(10.0, dim)) @ rot_r.T
        return 10.0 * (dim - np.sum(np.cos(2 * np.pi * z), axis=1)) + np.sum(
            z**2, axis=1
        )

    if fid == "weierstrass":
        z = (_osz((x - xo) @ rot_r.T) @ rot_q.T * _lam(0.01, dim)) @ rot_r.T
        k = np.arange(12)
        half_k = 0.5**k
        three_k = 3.0**k
        f0 = np.sum(half_k * np.cos(np.pi * three_k))
        s = np.sum(half_k * np.cos(2 * np.pi * three_k * (z[..., None] + 0.5)), axis=(1, 2))
        return 10.0 * (s / dim - f0) ** 3 + 10.0 / dim * _pen(x)

    if fid in ("schaffers_f7", "schaffers_high_cond"):
        alpha = 10.0 if fid == "schaffers_f7" else 1000.0
        z = (_asy((x - xo) @ rot_r.T, 0.5, dim) @ rot_q.T) * _lam(alpha, dim)
        s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
        g = (
            np.sum(np.sqrt(s) + np.sqrt(s) * np.sin(50.0 * s**0.2) ** 2, axis=1)
            / (dim - 1)
        ) ** 2
        return g + 10.0 * _pen(x)

    if fid == "griewank_rosenbrock":
        c = max(1.0, np.sqrt(dim) / 8.0)
        z = c * (x @ rot_r.T) + 0.5
        a, b = z[:, :-1], z[:, 1:]
        s = 100.0 * (a**2 - b) ** 2 + (a - 1.0) ** 2
        return 10.0 * np.sum(s / 4000.0 - np.cos(s), axis=1) / (dim - 1) + 10.0

    if fid == "schwefel":
        bern = inst.params["bern"]
        two_abs = 2.0 * np.abs(xo)
        xhat = 2.0 * bern * x
        zhat = xhat.copy()
        zhat[:, 1:] += 0.25 * (xhat[:, :-1] - two_abs[:-1])
        z = 100.0 * (_lam(10.0, dim) * (zhat - two_abs) + two_abs)
        g = (
            -np.sum(z * np.sin(np.sqrt(np.abs(z))), axis=1) / (100.0 * dim)
            + 4.189828872724339
        )
        return g + 100.0 * _pen(z / 100.0)

    if fid in ("gallagher_101_peaks", "gallagher_21_peaks"):
        w = inst.params["w"]
        peaks = inst.params["peaks"]
        mats = inst.params["mats"]
        d = x[:, None, :] - peaks[None, :, :]  # (n, P, dim)
        q = np.einsum("npi,pij,npj->np", d, mats, d)
        best = np.max(w * np.exp(-q / (2.0 * dim)), axis=1)
        return _osz(10.0 - best) ** 2 + _pen(x)

    if fid == "katsuura":
        z = ((x - xo) @ rot_r.T * _lam(100.0, dim)) @ rot_q.T
        two_j = 2.0 ** np.arange(1, 33)
        t = two_j * z[..., None]
        s = np.sum(np.abs(t - np.round(t)) / two_j, axis=2)
        prod = np.prod(1.0 + np.arange(1, dim + 1) * s, axis=1)
        g = 10.0 / dim**2 * (prod ** (10.0 / dim**1.2) - 1.0)
        return g + _pen(x)

    if fid == "lunacek_bi_rastrigin":
        mu0 = 2.5
        d = 1.0
        s = 1.0 - 1.0 / (2.0 * np.sqrt(dim + 20.0) - 8.2)
        mu1 = -np.sqrt((mu0**2 - d) / s)
        xhat = 2.0 * np.sign(xo) * x
        z = ((xhat - mu0) @ rot_r.T * _lam(100.0, dim)) @ rot_q.T
        s1 = np.sum((xhat - mu0) ** 2, axis=1)
        s2 = np.sum((xhat - mu1) ** 2, axis=1)
        s3 = np.sum(np.cos(2 * np.pi * z), axis=1)
        return np.minimum(s1, d * dim + s * s2) + 10.0 * (dim - s3) + 1e4 * _pen(x)

    raise ContractViolation(f"unknown function_id {fid!r}")


def evaluate_many(inst: ProblemInstance, points: np.ndarray) -> np.ndarray:
    """Vectorized objective over rows of ``points``; shape (n, dim) -> (n,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != inst.dimension:
        raise ContractViolation(
            f"points must have shape (n, {inst.dimension}), got {pts.shape}"
        )
    return _raw(inst, pts) + inst.optimum_value


def evaluate(inst: ProblemInstance, point: Sequence[float]) -> float:
    """Objective at a single point; dimension mismatch is a contract error."""
    pt = np.asarray(point, dtype=float)
    if pt.shape != (inst.dimension,):
        raise ContractViolation(
            f"point must have shape ({inst.dimension},), got {pt.shape}"
        )
    return float(_raw(inst, pt[None, :])[0] + inst.optimum_value)


@dataclass(eq=False)
class ProblemSuite:
    """Ordered train/test instance lists with disjoint families."""

    train_instances: list[ProblemInstance]
    test_instances: list[ProblemInstance]
    dimension: int
    seed: int

    def manifest(self) -> dict:
        def rows(instances):
            return [
                {
                    "function_id": p.function_id,
                    "dimension": p.dimension,
                    "instance_seed": p.instance_seed,
                    "optimum_value": p.optimum_value,
                }
                for p in instances
            ]

        return {
            "dimension": self.dimension,
            "seed": self.seed,
            "train": rows(self.train_instances),
            "test": rows(self.test_instances),
        }


def make_suite(
    dimension: int = 10, seed: int = 0, instances_per_family: int = 1
) -> ProblemSuite:
    """Build the standard split: 8 training families, 16 held-out families."""
    if instances_per_family < 1:
        raise ContractViolation("instances_per_family must be >= 1")

    def build(families):
        out = []
        for fid in families:
            for rep in range(instances_per_family):
                inst_seed = mix64(seed, _FAMILY_INDEX[fid] * 1000 + rep)
                out.append(make_instance(fid, dimension, inst_seed))
        return out

    return ProblemSuite(
        train_instances=build(TRAIN_FAMILIES),
        test_instances=build(TEST_FAMILIES),
        dimension=int(dimension),
        seed=int(seed),
    )
