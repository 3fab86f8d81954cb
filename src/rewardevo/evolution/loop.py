"""The discovery loop: initialize every niche, then per generation run
reproduction, evaluation, survivor selection per niche, and one knowledge
transfer pass; snapshot each generation for resumability.

Fully deterministic under the replay mock and a fixed seed: LLM calls are
sequenced in a fixed order, evaluation is order-independent, and survivor
draws come from dedicated seeded generators.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .. import llm, rsl
from ..envs import Metadata, get_schema, handcrafted_reward, load_task_metadata
from ..problems import DISPLAY_NAMES, mix64
from .config import RunConfig
from .model import Archive, IdAllocator, Individual, Niche, TransferRecord
from .operators import (
    OPERATOR_ORDER,
    Candidate,
    _common_vars,
    adapt_reward,
    op_c1,
    op_c2,
    op_m0,
    op_m1,
    op_m2,
    op_m3,
    reflect_text,
    request_individual,
    summarize_archive,
)
from .rundir import RunDir
from .selection import select_survivors

logger = logging.getLogger(__name__)

EXPERT_THOUGHT = (
    "Expert-designed reward shipped with the task's original method."
)


class DiscoveryAborted(RuntimeError):
    """Unrecoverable provider failure; the run is checkpointed and resumable."""

    def __init__(self, message: str, generation: int):
        super().__init__(message)
        self.generation = generation


@dataclass
class RunResult:
    run_dir: RunDir
    niches: dict[str, Niche]
    best: dict[str, Individual]


class _State:
    """Everything the loop mutates, serializable for snapshots."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.ids = IdAllocator()
        self.registry: dict[str, Individual] = {}
        self.niches: dict[str, Niche] = {}
        self.archive = Archive(config.archive_cap)
        self.transfers: list[TransferRecord] = []
        self.sel_rng = np.random.Generator(np.random.PCG64(mix64(config.seed, 0xE0)))
        self.c2_rng = np.random.Generator(np.random.PCG64(mix64(config.seed, 0xC2)))
        self.generation = 0

    def new_individual(
        self,
        task_id: str,
        thought: str,
        source: str,
        program: rsl.RewardProgram,
        generation: int,
        parent_ids: tuple[str, ...],
        operator: str,
        reflection: str = "",
    ) -> Individual:
        ind = Individual(
            id=self.ids.new(),
            task_id=task_id,
            thought=thought,
            source=source,
            fitness=math.inf,
            per_instance_medians=None,
            generation_born=generation,
            parent_ids=parent_ids,
            operator=operator,
            status="invalid",
            content_hash=program.content_hash,
            reflection=reflection,
            _program=program,
        )
        self.registry[ind.id] = ind
        return ind

    def apply_report(self, ind: Individual, report) -> None:
        if report.invalid_flag:
            ind.fitness = math.inf
            ind.status = "invalid"
            ind.reflection = ind.reflection or (report.failure_reason or "")
        else:
            ind.fitness = report.fitness
            ind.per_instance_medians = report.per_instance_medians
            ind.status = "alive"

    def trace(self, parent: Individual, limit: int) -> list[Individual]:
        """Ancestor chain of ``parent`` (primary parents), oldest first."""
        chain: list[Individual] = []
        cur = parent
        while cur.parent_ids and len(chain) < limit:
            nxt = self.registry.get(cur.parent_ids[0])
            if nxt is None:
                break
            chain.append(nxt)
            cur = nxt
        return list(reversed(chain))

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "id_counter": self.ids.counter,
            "registry": {k: v.to_dict() for k, v in self.registry.items()},
            "niches": {
                tid: {
                    "members": [m.id for m in niche.members],
                    "init_fallback": niche.init_fallback,
                    "best_ever_id": niche.best_ever_id,
                    "best_ever_fitness": (
                        None
                        if math.isinf(niche.best_ever_fitness)
                        else niche.best_ever_fitness
                    ),
                }
                for tid, niche in self.niches.items()
            },
            "archive": {
                "cap": self.archive.cap,
                "entry_ids": [e.id for e in self.archive.entries],
                "summary_text": self.archive.summary_text,
                "summary_generation": self.archive.summary_generation,
            },
            "transfers": [t.to_dict() for t in self.transfers],
            "sel_rng": self.sel_rng.bit_generator.state,
            "c2_rng": self.c2_rng.bit_generator.state,
        }

    @classmethod
    def from_dict(cls, config: RunConfig, d: dict, metadata: dict) -> "_State":
        state = cls(config)
        state.generation = int(d["generation"])
        state.ids = IdAllocator(d["id_counter"])
        state.registry = {
            k: Individual.from_dict(v) for k, v in d["registry"].items()
        }
        for tid, nd in d["niches"].items():
            niche = Niche(task_id=tid, metadata=metadata[tid])
            niche.members = [state.registry[i] for i in nd["members"]]
            niche.init_fallback = nd["init_fallback"]
            niche.best_ever_id = nd["best_ever_id"]
            niche.best_ever_fitness = (
                math.inf
                if nd["best_ever_fitness"] is None
                else nd["best_ever_fitness"]
            )
            state.niches[tid] = niche
        state.archive = Archive(d["archive"]["cap"])
        state.archive.entries = [
            state.registry[i] for i in d["archive"]["entry_ids"]
        ]
        state.archive.summary_text = d["archive"]["summary_text"]
        state.archive.summary_generation = d["archive"]["summary_generation"]
        state.transfers = [TransferRecord.from_dict(t) for t in d["transfers"]]
        state.sel_rng.bit_generator.state = d["sel_rng"]
        state.c2_rng.bit_generator.state = d["c2_rng"]
        return state


def initialize_niche(
    task_id: str,
    metadata: Metadata,
    provider,
    evaluator,
    n: int,
    max_attempts: int,
    difference_rate: int,
    state: _State,
) -> Niche:
    """Expert anchor first, then iterative in-context generation with strict
    rejection sampling: a candidate joins only if it strictly beats the
    anchor. Exhausted attempts fall back to the best rejected candidates."""
    schema = get_schema(task_id)
    niche = Niche(task_id=task_id, metadata=metadata)

    anchor_program = handcrafted_reward(task_id)
    anchor = state.new_individual(
        task_id, EXPERT_THOUGHT, anchor_program.source_text, anchor_program, 0, (),
        "expert",
    )
    state.apply_report(anchor, evaluator.run([(anchor_program, task_id)])[0])
    if not anchor.valid:
        raise RuntimeError(
            f"expert anchor for {task_id} evaluated invalid; environment broken"
        )
    niche.members.append(anchor)
    niche.note_best(anchor)

    rejected: list[Individual] = []
    attempts = 0
    while len(niche.members) < n and attempts < max_attempts:
        attempts += 1
        prior = "\n\n".join(
            f"No. {i} Thought: {m.thought}\nFitness: {m.fitness:.6g}"
            for i, m in enumerate(niche.members, start=1)
        )
        result = request_individual(
            provider,
            "init",
            {
                **_common_vars(metadata),
                "prior_count": len(niche.members),
                "prior_individuals": prior,
                "difference_rate": difference_rate,
            },
            schema,
        )
        if result is None:
            continue
        thought, source, program = result
        ind = state.new_individual(task_id, thought, source, program, 0, (), "init")
        state.apply_report(ind, evaluator.run([(program, task_id)])[0])
        if ind.valid and ind.fitness < anchor.fitness:
            niche.members.append(ind)
            niche.note_best(ind)
        else:
            rejected.append(ind)

    if len(niche.members) < n:
        niche.init_fallback = True
        fallback = sorted(
            (r for r in rejected if r.valid),
            key=lambda i: (i.fitness, i.id),
        )
        while len(niche.members) < n and fallback:
            ind = fallback.pop(0)
            ind.status = "alive"
            niche.members.append(ind)
            niche.note_best(ind)
        if len(niche.members) < n:
            logger.warning(
                "niche %s initialized with only %d/%d members",
                task_id,
                len(niche.members),
                n,
            )
    # Unused finite-fitness rejects are eliminated into the archive.
    used = {m.id for m in niche.members}
    for r in rejected:
        if r.id not in used and r.valid:
            r.status = "eliminated"
            state.archive.add(r)
    return niche


def _global_best(state: _State) -> Individual:
    return min(
        (n.best_member() for n in state.niches.values()),
        key=lambda i: (i.fitness, i.id),
    )


def reproduce(
    niche: Niche,
    state: _State,
    provider,
    evaluator,
    generation: int,
) -> list[Individual]:
    """One offspring per operator per parent, in fixed order; all evaluated
    as one batch. Returns the offspring (valid and invalid)."""
    config = state.config
    meta = niche.metadata
    test_labels = _test_labels(evaluator)
    niche_best = niche.best_member()
    global_best = _global_best(state)
    other_niches = [t for t in state.niches if t != niche.task_id]

    candidates: list[Candidate] = []
    for parent in list(niche.members):
        for slot in OPERATOR_ORDER:
            op = state.config.replace_ops.get(slot, slot)
            if op == "m0":
                cand = op_m0(parent, meta, provider)
            elif slot == "m1":
                cand = op_m1(parent, meta, test_labels, config.k_failure, provider)
            elif slot == "m2":
                trace = state.trace(parent, config.history_window)
                cand = op_m2(parent, trace, meta, provider)
            elif slot == "m3":
                summary = summarize_archive(
                    state.archive, generation, meta, provider
                )
                cand = op_m3(parent, summary, len(state.archive), meta, provider)
            elif slot == "c1":
                cand = op_c1(parent, niche_best, global_best, meta, provider)
            else:  # c2
                if not other_niches:
                    logger.warning("c2 skipped: single niche configured")
                    cand = None
                else:
                    partner_task = other_niches[
                        int(state.c2_rng.integers(len(other_niches)))
                    ]
                    partner = state.niches[partner_task].best_member()
                    cand = op_c2(parent, partner, meta, provider)
            if cand is not None:
                candidates.append(cand)

    offspring = [
        state.new_individual(
            niche.task_id,
            c.thought,
            c.source,
            c.program,
            generation,
            c.parent_ids,
            c.operator,
            reflection=c.reflection,
        )
        for c in candidates
    ]
    reports = evaluator.run([(ind.program(), niche.task_id) for ind in offspring])
    for ind, report in zip(offspring, reports):
        state.apply_report(ind, report)
        if ind.valid:
            niche.note_best(ind)
    return offspring


def _test_labels(evaluator) -> list[str]:
    """Instance labels aligned with per_instance_medians. Evaluators backed
    by a real suite expose it; synthetic ones fall back to family names."""
    suite = getattr(evaluator, "suite", None)
    if suite is not None:
        return [
            f"{inst.name} (seed {inst.instance_seed})"
            for inst in suite.test_instances
        ]
    from ..problems import TEST_FAMILIES

    return [DISPLAY_NAMES[f] for f in TEST_FAMILIES]


def knowledge_transfer(
    state: _State, provider, evaluator, generation: int
) -> list[TransferRecord]:
    """One planning call, then one transplant per parsed pathway; the
    transplant replaces the target's worst member unconditionally (outcome
    recorded either way)."""
    if len(state.niches) < 2:
        return []
    history_lines = [
        (
            f"- gen {t.generation}: {t.source_task} -> {t.target_task} "
            f"[{t.status}] transplant fitness "
            f"{t.transplant_fitness if t.transplant_fitness is not None else 'n/a'} "
            f"vs replaced {t.replaced_fitness if t.replaced_fitness is not None else 'n/a'}"
        )
        for t in state.transfers[-12:]
    ]
    overview_parts = []
    for tid, niche in state.niches.items():
        thoughts = "\n".join(
            f"  - (fitness {m.fitness:.6g}) {m.thought}" for m in niche.members
        )
        overview_parts.append(
            f"Task id: {tid}\n{niche.metadata.c_alg}\nCurrent individual thoughts:\n{thoughts}"
        )
    response = reflect_text(
        provider,
        "kt_reflect",
        {
            "history": "\n".join(history_lines) or "(no transfer history yet)",
            "tasks_overview": "\n\n".join(overview_parts),
            "n_direction": state.config.pathway_count,
        },
    )
    if response is None:
        logger.warning("knowledge transfer skipped: planning call failed")
        return []
    try:
        pathways = llm.parse_kt_plan(response, list(state.niches))
    except llm.LlmParseError as exc:
        logger.warning("knowledge transfer skipped: unparseable plan (%s)", exc)
        return []

    records: list[TransferRecord] = []
    for pw in pathways:
        source_niche = state.niches[pw.source_task]
        target_niche = state.niches[pw.target_task]
        source_best = source_niche.best_member()
        record = TransferRecord(
            generation=generation,
            source_task=pw.source_task,
            target_task=pw.target_task,
            rationale=pw.rationale,
            strategy=pw.strategy,
            status="failed",
        )
        result = adapt_reward(
            provider,
            source_best.source,
            target_niche.metadata,
            pw.rationale,
            pw.strategy,
        )
        if result is None:
            record.failure_reason = "no valid adaptation after retries"
            records.append(record)
            continue
        thought, source, program = result
        transplant = state.new_individual(
            pw.target_task,
            thought,
            source,
            program,
            generation,
            (source_best.id,),
            "kt",
            reflection=pw.strategy,
        )
        state.apply_report(
            transplant, evaluator.run([(program, pw.target_task)])[0]
        )
        record.transplant_id = transplant.id
        record.transplant_fitness = (
            transplant.fitness if transplant.valid else None
        )
        if not transplant.valid:
            record.failure_reason = "transplant evaluated invalid"
            records.append(record)
            continue
        worst = target_niche.worst_member()
        worst.status = "eliminated"
        state.archive.add(worst)
        target_niche.members.remove(worst)
        target_niche.members.append(transplant)
        target_niche.members.sort(key=lambda m: (m.fitness, m.generation_born, m.id))
        target_niche.note_best(transplant)
        record.replaced_id = worst.id
        record.replaced_fitness = worst.fitness
        record.status = "applied"
        records.append(record)
    state.transfers.extend(records)
    return records


def _report_rows(state: _State, generation: int, invalid_counts, kt_records):
    rows = []
    for tid, niche in state.niches.items():
        alive = [m.fitness for m in niche.members if m.valid]
        rows.append(
            {
                "generation": generation,
                "task": tid,
                "best_fitness": (
                    repr(niche.best_ever_fitness)
                    if math.isfinite(niche.best_ever_fitness)
                    else ""
                ),
                "mean_fitness": repr(sum(alive) / len(alive)) if alive else "",
                "invalid_count": invalid_counts.get(tid, 0),
                "kt_count": sum(
                    1
                    for r in kt_records
                    if r.target_task == tid and r.status == "applied"
                ),
            }
        )
    return rows


def run_discovery(
    config: RunConfig,
    provider,
    evaluator,
    out_dir,
    resume: bool = False,
    on_generation=None,
) -> RunResult:
    """Algorithm main loop. ``evaluator.run(pairs)`` scores a list of
    ``(program, task_id)`` pairs and returns one FitnessReport per pair, in
    order; an evaluator with a ``suite`` attribute lends the m1 prompts its
    test-instance labels. ``provider`` exposes complete(template_id, prompt,
    temperature). ``on_generation(generation, rows)`` is invoked with the
    per-task report rows as each generation completes."""
    config.validate()
    run = RunDir(out_dir, resume=resume)
    recorder = llm.RecordingProvider(provider, run.exchanges_path)
    allow_abort = getattr(provider, "tag", "") != "mock"

    metadata = {tid: load_task_metadata(tid) for tid in config.tasks}

    start_gen = 1
    if resume:
        snap = run.latest_snapshot()
        if snap is None:
            raise DiscoveryAborted("resume requested but no snapshot found", 0)
        gen, payload = snap
        state = _State.from_dict(config, payload, metadata)
        recorder.fast_forward(payload.get("consumed", {}))
        start_gen = gen + 1
        # A resume may extend g_max or change workers; record what is in
        # effect. Unchanged settings rewrite the same bytes.
        run.write_config(config.to_dict())
    else:
        run.write_config(config.to_dict())
        state = _State(config)
        for tid in config.tasks:
            niche = initialize_niche(
                tid,
                metadata[tid],
                recorder,
                evaluator,
                config.niche_size,
                config.init_attempts,
                config.difference_rate,
                state,
            )
            state.niches[tid] = niche
            for member in niche.members:
                run.write_individual(0, member)
        init_rows = _report_rows(state, 0, {}, [])
        run.append_report_rows(init_rows)
        state.generation = 0
        _snapshot(run, state, recorder, 0)
        if on_generation is not None:
            on_generation(0, init_rows)

    for g in range(start_gen, config.g_max + 1):
        invalid_counts: dict[str, int] = {}
        for tid in config.tasks:
            niche = state.niches[tid]
            parents = list(niche.members)
            offspring = reproduce(niche, state, recorder, evaluator, g)
            invalid_counts[tid] = sum(1 for o in offspring if not o.valid)
            valid_offspring = [o for o in offspring if o.valid]
            nominal = (len(OPERATOR_ORDER) + 1) * config.niche_size
            survivors, eliminated = select_survivors(
                parents + valid_offspring,
                config.niche_size,
                state.sel_rng,
                nominal_pool_size=nominal,
            )
            niche.members = survivors
            survivor_ids = {s.id for s in survivors}
            for ind in parents + valid_offspring:
                if ind.id not in survivor_ids:
                    ind.status = "eliminated"
                    state.archive.add(ind)
            run.append_archive(eliminated, g)
            for ind in parents + offspring:
                run.write_individual(g, ind)
            # Live-provider health check: a niche whose every operator slot
            # came back empty means the transport is down; checkpoint and
            # abort rather than crawl on.
            if allow_abort and not offspring:
                state.generation = g
                _snapshot(run, state, recorder, g)
                raise DiscoveryAborted(
                    f"provider produced no usable output in generation {g}", g
                )
        kt_records: list[TransferRecord] = []
        if not config.disable_kt and len(config.tasks) >= 2:
            kt_records = knowledge_transfer(state, recorder, evaluator, g)
            run.append_transfers(kt_records)
            for rec in kt_records:
                if rec.status == "applied" and rec.transplant_id:
                    run.write_individual(g, state.registry[rec.transplant_id])
        rows = _report_rows(state, g, invalid_counts, kt_records)
        run.append_report_rows(rows)
        state.generation = g
        _snapshot(run, state, recorder, g)
        if on_generation is not None:
            on_generation(g, rows)

    best: dict[str, Individual] = {}
    for tid, niche in state.niches.items():
        if niche.best_ever_id is not None:
            best[tid] = state.registry[niche.best_ever_id]
            run.write_best(best[tid])
    return RunResult(run_dir=run, niches=state.niches, best=best)


def _snapshot(run: RunDir, state: _State, recorder, generation: int) -> None:
    payload = state.to_dict()
    payload["consumed"] = dict(getattr(recorder, "consumed", {}) or {})
    run.write_snapshot(generation, payload)
