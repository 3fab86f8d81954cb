"""Run-directory layout and I/O.

    config.json                      echoed configuration (no output path)
    niches/<task>/gen-<g>/<id>.json  per-generation individual records
    archive.jsonl                    eliminated individuals, append-only
    transfers.jsonl                  knowledge-transfer history H
    exchanges.jsonl                  answered LLM requests (template id,
                                     prompt hash, response, attempt)
    snapshots/gen-<g>.json           resumable full state
    report.csv                       per-generation per-task summary
    best/<task>.rsl (+ .json)        final best reward per task
    fitness-cache/<digest>.json      persisted fitness reports

The three .jsonl logs are created with their first line; a failed LLM
request leaves no line in exchanges.jsonl, only a WARNING log record.
Nothing here writes timestamps, so identical runs produce byte-identical
directories.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from .. import rsl
from .model import Individual

REPORT_COLUMNS = (
    "generation",
    "task",
    "best_fitness",
    "mean_fitness",
    "invalid_count",
    "kt_count",
)


class RunDir:
    def __init__(self, path: str | Path, resume: bool = False):
        self.path = Path(path)
        if self.path.exists() and not resume:
            # An empty, pre-created fitness cache does not count as content.
            leftovers = [
                p for p in self.path.iterdir() if p.name != "fitness-cache"
            ]
            if leftovers:
                raise FileExistsError(
                    f"output directory {self.path} exists and is not empty"
                )
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / "niches").mkdir(exist_ok=True)
        (self.path / "snapshots").mkdir(exist_ok=True)
        (self.path / "best").mkdir(exist_ok=True)

    # -- plain files ---------------------------------------------------------
    def write_config(self, config_dict: dict) -> None:
        (self.path / "config.json").write_text(
            json.dumps(config_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @property
    def exchanges_path(self) -> Path:
        return self.path / "exchanges.jsonl"

    # -- individuals -----------------------------------------------------------
    def write_individual(self, generation: int, ind: Individual) -> None:
        gen_dir = self.path / "niches" / ind.task_id / f"gen-{generation}"
        gen_dir.mkdir(parents=True, exist_ok=True)
        (gen_dir / f"{ind.id}.json").write_text(
            json.dumps(ind.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def iter_individuals(self):
        """Yields (task_id, generation, individual dict) across the run."""
        root = self.path / "niches"
        if not root.is_dir():
            return
        for task_dir in sorted(root.iterdir()):
            for gen_dir in sorted(
                task_dir.glob("gen-*"),
                key=lambda p: int(p.name.split("-", 1)[1]),
            ):
                gen = int(gen_dir.name.split("-", 1)[1])
                for f in sorted(gen_dir.glob("*.json")):
                    yield task_dir.name, gen, json.loads(
                        f.read_text(encoding="utf-8")
                    )

    # -- append-only logs ------------------------------------------------------
    def _append_jsonl(self, name: str, records: list[dict]) -> None:
        if not records:
            return
        with (self.path / name).open("a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def append_archive(self, individuals: list[Individual], generation: int) -> None:
        self._append_jsonl(
            "archive.jsonl",
            [
                {
                    "generation": generation,
                    "id": i.id,
                    "task_id": i.task_id,
                    "fitness": None if not i.valid else i.fitness,
                    "operator": i.operator,
                    "content_hash": i.content_hash,
                }
                for i in individuals
            ],
        )

    def append_transfers(self, records: list) -> None:
        self._append_jsonl("transfers.jsonl", [r.to_dict() for r in records])

    def read_transfers(self) -> list[dict]:
        p = self.path / "transfers.jsonl"
        if not p.exists():
            return []
        return [
            json.loads(line)
            for line in p.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    # -- report ---------------------------------------------------------------
    def append_report_rows(self, rows: list[dict]) -> None:
        path = self.path / "report.csv"
        new = not path.exists()
        with path.open("a", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            if new:
                writer.writeheader()
            for row in rows:
                writer.writerow(row)

    # -- snapshots --------------------------------------------------------------
    def write_snapshot(self, generation: int, state: dict) -> None:
        (self.path / "snapshots" / f"gen-{generation}.json").write_text(
            json.dumps(state, sort_keys=True) + "\n", encoding="utf-8"
        )

    def latest_snapshot(self) -> tuple[int, dict] | None:
        snaps = []
        for p in (self.path / "snapshots").glob("gen-*.json"):
            m = re.fullmatch(r"gen-(\d+)\.json", p.name)
            if m:
                snaps.append((int(m.group(1)), p))
        if not snaps:
            return None
        gen, path = max(snaps)
        return gen, json.loads(path.read_text(encoding="utf-8"))

    # -- final outputs -----------------------------------------------------------
    def write_best(self, ind: Individual) -> Path:
        out = self.path / "best" / f"{ind.task_id}.rsl"
        rsl.write_reward_file(
            out,
            ind.source,
            ind.task_id,
            thought=ind.thought,
            fitness=None if math.isinf(ind.fitness) else ind.fitness,
        )
        return out
