from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rewardevo import envs, problems  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def suite_d5():
    return problems.make_suite(dimension=5, seed=3)


@pytest.fixture(scope="session")
def suite_d2():
    return problems.make_suite(dimension=2, seed=3)


@pytest.fixture(scope="session")
def tasks_d5(suite_d5):
    return {
        tid: envs.make_task(tid, suite_d5, max_fes=2000) for tid in envs.TASK_IDS
    }


@pytest.fixture(scope="session")
def golden_dir():
    GOLDEN_DIR.mkdir(exist_ok=True)
    return GOLDEN_DIR


def golden_check(path: Path, actual: str, regen: bool) -> None:
    """Compare against a committed golden file; (re)generate it only when
    asked, so a deleted golden file fails its test instead of hiding it."""
    if regen:
        path.write_text(actual, encoding="utf-8")
    if not path.exists():
        pytest.fail(
            f"golden file {path.name} is missing; set REWARDEVO_REGEN_GOLDEN=1 "
            f"to generate it"
        )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{path.name} drifted; set REWARDEVO_REGEN_GOLDEN=1 to regenerate "
        f"deliberately"
    )


@pytest.fixture(scope="session")
def regen_golden():
    import os

    return os.environ.get("REWARDEVO_REGEN_GOLDEN") == "1"
