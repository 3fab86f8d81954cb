"""Operator-facing command line.

Subcommands: discover (run the search), eval-reward (score one reward file),
transfer (zero-shot adaptation between tasks), report (emit CSV data files
from a run directory).

Exit codes: 0 success, 2 config/input error, 3 provider error, 4 evaluation
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import envs, llm, rsl
from .envs import get_schema, handcrafted_reward
from .evolution import (
    ConfigError,
    DiscoveryAborted,
    RunConfig,
    RunDir,
    adapt_reward,
    run_discovery,
)
from .fitness import (
    BUDGET_PROFILES,
    EvalBudget,
    EvaluationScheduler,
    FitnessCache,
    compute_sne,
)
from .problems import ProblemSuite, make_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_EVAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_json(path: Path, what: str) -> dict:
    """A JSON object read from a file; a missing or malformed file is a
    config error."""
    if not path.is_file():
        raise CliError(f"{what} not found: {path}", EXIT_CONFIG)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise CliError(f"{what} is not valid JSON: {exc}", EXIT_CONFIG)
    if not isinstance(doc, dict):
        raise CliError(f"{what} is not a JSON object: {path}", EXIT_CONFIG)
    return doc


def _build_provider(provider_cfg: dict | None, replay: str | None):
    if replay:
        path = Path(replay)
        if not path.exists():
            raise CliError(f"replay script not found: {path}", EXIT_CONFIG)
        try:
            return llm.MockProvider.from_jsonl(path)
        except (ValueError, KeyError, TypeError) as exc:
            # Not JSON, not UTF-8, or an entry without template_id/response.
            raise CliError(f"replay script {path} is malformed: {exc!r}", EXIT_CONFIG)
    if not provider_cfg:
        raise CliError(
            "no provider configured: pass --replay or a config with a "
            '"provider" section',
            EXIT_CONFIG,
        )
    try:
        config = llm.ProviderConfig(**provider_cfg)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad provider config: {exc}", EXIT_CONFIG)
    return llm.LiveProvider(config)


def _read_reward(path_arg: str) -> tuple[Path, rsl.RewardProgram]:
    path = Path(path_arg)
    if not path.exists():
        raise CliError(f"reward file not found: {path}", EXIT_CONFIG)
    try:
        program, _sidecar = rsl.read_reward_file(path)
    except rsl.RslParseError as exc:
        raise CliError(f"reward file does not parse: {exc}", EXIT_CONFIG)
    return path, program


def _evaluation(
    task_ids: list[str], dimension: int, suite_seed: int, instances_per_family=1, **budget_parts
) -> tuple[EvalBudget, ProblemSuite]:
    """The budget and suite of an evaluation, with every task it will score
    built once on them. Settings that the budget, the suite or a task's
    population reject are a config error, raised before any side effect."""
    try:
        budget = EvalBudget(**budget_parts)
        suite = make_suite(dimension, suite_seed, instances_per_family)
        for task_id in task_ids:
            envs.make_task(task_id, suite, max_fes=budget.fe_budget)
    except ValueError as exc:
        raise CliError(f"bad evaluation settings: {exc}", EXIT_CONFIG)
    return budget, suite


def _profile_evaluator(args, task_ids: list[str]) -> EvaluationScheduler:
    """An uncached evaluator under the --profile budget, with --fe-budget and
    --train-episodes overriding the profile's values."""
    base = BUDGET_PROFILES[args.profile]
    budget, suite = _evaluation(
        task_ids, args.dimension, args.suite_seed,
        gamma=base.gamma,
        fe_budget=base.fe_budget if args.fe_budget is None else args.fe_budget,
        train_episodes=base.train_episodes if args.train_episodes is None else args.train_episodes,
    )
    return EvaluationScheduler(suite, budget, args.seed)


# -- discover -----------------------------------------------------------------


def cmd_discover(args) -> int:
    raw = _read_json(Path(args.config), "config") if args.config else {}
    provider_cfg = raw.pop("provider", None)
    replay = args.replay or raw.pop("replay", None)

    if args.resume:
        run_dir = Path(args.resume)
        if not (run_dir / "config.json").exists():
            raise CliError(f"no run to resume at {run_dir}", EXIT_CONFIG)
        raw = _read_json(run_dir / "config.json", "saved config")
        provider_cfg = raw.pop("provider", None) or provider_cfg
        out_dir = run_dir
    else:
        out_dir = Path(args.out or "run")

    # Settings that decide how candidates are made and scored. A resumed run
    # keeps its saved values, so these flags may only repeat them.
    fixed = {}
    if args.seed is not None:
        fixed["seed"] = args.seed
    if args.disable_kt:
        fixed["disable_kt"] = True
    if args.replace_op:
        ops = dict(raw.get("replace_ops", {}))
        for spec in args.replace_op:
            if "=" not in spec:
                raise CliError(f"bad --replace-op {spec!r}; expected <op>=m0", EXIT_CONFIG)
            slot, repl = spec.split("=", 1)
            ops[slot] = repl
        fixed["replace_ops"] = ops
    for key, value in fixed.items():
        if args.resume and raw.get(key) != value:
            raise CliError(
                f"cannot change {key} of a resumed run: saved {raw.get(key)!r}, "
                f"given {value!r}",
                EXIT_CONFIG,
            )
    raw.update(fixed)
    if args.gmax is not None:
        raw["g_max"] = args.gmax
    if args.workers is not None:
        raw["workers"] = args.workers

    try:
        config = RunConfig.from_dict(raw)
    except ConfigError as exc:
        raise CliError(f"config validation error: {exc}", EXIT_CONFIG)
    budget, suite = _evaluation(
        config.tasks, config.dimension, config.suite_seed, config.instances_per_family,
        gamma=config.gamma, fe_budget=config.fe_budget, train_episodes=config.train_episodes,
    )

    provider = _build_provider(provider_cfg, replay)
    if not args.resume and out_dir.exists() and any(out_dir.iterdir()):
        raise CliError(
            f"output directory {out_dir} exists and is not empty", EXIT_CONFIG
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluator = EvaluationScheduler(
        suite, budget, config.seed, FitnessCache(out_dir / "fitness-cache"), config.workers
    )

    def print_generation(generation, rows):
        for row in rows:
            best = row["best_fitness"] or "n/a"
            print(f"gen {generation} {row['task']}: best {best}")

    try:
        result = run_discovery(
            config,
            provider,
            evaluator,
            out_dir,
            resume=bool(args.resume),
            on_generation=print_generation,
        )
    except DiscoveryAborted as exc:
        print(f"aborted at generation {exc.generation}: {exc}", file=sys.stderr)
        print(f"resume with: rewardevo discover --resume {out_dir}", file=sys.stderr)
        return EXIT_PROVIDER

    for tid, ind in sorted(result.best.items()):
        print(f"{tid}: best fitness {ind.fitness:.6g} ({ind.id}, op {ind.operator})")
    print(f"run directory: {out_dir}")
    return EXIT_OK


# -- eval-reward ---------------------------------------------------------------


def cmd_eval_reward(args) -> int:
    _path, program = _read_reward(args.reward)
    task_id = args.task or program.task_hint
    if not task_id:
        raise CliError("no task: pass --task or use a '#! rsl v1 task=' header", EXIT_CONFIG)
    if task_id not in envs.TASK_IDS:
        raise CliError(f"unknown task {task_id!r}", EXIT_CONFIG)
    errors = rsl.schema_errors(program, get_schema(task_id).names())
    if errors:
        raise CliError(
            f"reward references unknown fields for {task_id}: {sorted(errors)}",
            EXIT_CONFIG,
        )

    report = _profile_evaluator(args, [task_id]).run([(program, task_id)])[0]
    doc = report.to_dict()
    doc["task_id"] = task_id
    doc["reward_hash"] = program.content_hash
    doc["profile"] = args.profile
    if report.invalid_flag:
        print(f"{task_id}: INVALID ({report.failure_reason})")
        print(json.dumps(doc, sort_keys=True))
        return EXIT_EVAL
    print(f"{task_id}: fitness {report.fitness:.6g} over profile {args.profile!r}")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


# -- transfer --------------------------------------------------------------------


def cmd_transfer(args) -> int:
    path, program = _read_reward(args.reward)
    source_task = args.source_task or program.task_hint
    target_task = args.target_task
    for tid in (source_task, target_task):
        if tid not in envs.TASK_IDS:
            raise CliError(f"unknown task {tid!r}", EXIT_CONFIG)
    if source_task == target_task:
        raise CliError("source and target tasks must be distinct", EXIT_CONFIG)
    evaluator = _profile_evaluator(args, [target_task])

    provider_cfg = None
    if args.provider_config:
        provider_cfg = _read_json(Path(args.provider_config), "provider config")
    provider = _build_provider(provider_cfg, args.replay)

    result = adapt_reward(
        provider,
        program.source_text,
        envs.load_task_metadata(target_task),
        f"Zero-shot transfer of a reward evolved for {source_task} to {target_task}.",
        "Preserve the reward's logic while mapping every context read onto the "
        "target task's field dictionary; drop signals with no counterpart.",
    )
    if result is None:
        print("transfer failed: no schema-valid adaptation after retries", file=sys.stderr)
        return EXIT_PROVIDER
    thought, source, adapted = result

    adapted_report, anchor_report = evaluator.run(
        [(adapted, target_task), (handcrafted_reward(target_task), target_task)]
    )

    out = Path(args.out or f"{path.stem}-to-{target_task}.rsl")
    rsl.write_reward_file(
        out,
        source,
        target_task,
        thought=thought,
        fitness=None if adapted_report.invalid_flag else adapted_report.fitness,
    )
    doc = {
        "source_task": source_task,
        "target_task": target_task,
        "adapted_file": str(out),
        "adapted_fitness": (
            None if adapted_report.invalid_flag else adapted_report.fitness
        ),
        "anchor_fitness": (
            None if anchor_report.invalid_flag else anchor_report.fitness
        ),
    }
    print(json.dumps(doc, sort_keys=True))
    if adapted_report.invalid_flag:
        return EXIT_EVAL
    return EXIT_OK


# -- report -----------------------------------------------------------------------


def cmd_report(args) -> int:
    run_path = Path(args.run_dir)
    if not run_path.is_dir() or not (run_path / "config.json").exists():
        raise CliError(f"not a run directory: {run_path}", EXIT_CONFIG)
    run = RunDir(run_path, resume=True)
    out_dir = Path(args.out or run_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Trajectory: best-so-far fitness per task per generation.
    births: dict[str, dict] = {}
    by_gen: dict[tuple[str, int], list[dict]] = {}
    max_gen = 0
    for task_id, gen, doc in run.iter_individuals():
        max_gen = max(max_gen, gen)
        by_gen.setdefault((task_id, gen), []).append(doc)
        if doc["id"] not in births or gen < births[doc["id"]]["gen"]:
            births[doc["id"]] = {"gen": gen, "doc": doc, "task": task_id}
    tasks = sorted({t for t, _ in by_gen})
    with (out_dir / "trajectory.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "task", "best_so_far"])
        for task_id in tasks:
            best = math.inf
            for gen in range(0, max_gen + 1):
                for doc in by_gen.get((task_id, gen), []):
                    if doc["fitness"] is not None:
                        best = min(best, doc["fitness"])
                writer.writerow(
                    [gen, task_id, "" if math.isinf(best) else repr(best)]
                )

    # Operators: offspring counts and survival rates per operator tag.
    stats: dict[str, dict] = {}
    for info in births.values():
        doc = info["doc"]
        op = doc["operator"]
        entry = stats.setdefault(op, {"count": 0, "survived": 0, "invalid": 0})
        entry["count"] += 1
        if doc["status"] == "alive":
            entry["survived"] += 1
        if doc["status"] == "invalid":
            entry["invalid"] += 1
    with (out_dir / "operators.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["operator", "offspring", "survived", "invalid", "survival_rate"])
        for op in sorted(stats):
            e = stats[op]
            rate = e["survived"] / e["count"] if e["count"] else 0.0
            writer.writerow([op, e["count"], e["survived"], e["invalid"], repr(rate)])

    if args.baseline:
        base_path = Path(args.baseline)
        if not base_path.is_dir():
            raise CliError(f"not a run directory: {base_path}", EXIT_CONFIG)
        ours = _final_best(run)
        theirs = _final_best(RunDir(base_path, resume=True))
        shared = sorted(set(ours) & set(theirs))
        if not shared:
            raise CliError("no shared tasks between runs", EXIT_CONFIG)
        try:
            sne = compute_sne(
                [ours[t] for t in shared], [theirs[t] for t in shared]
            )
        except ValueError as exc:
            raise CliError(f"SNE undefined: {exc}", EXIT_EVAL)
        with (out_dir / "sne.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "run_fitness", "baseline_fitness", "ratio"])
            for t in shared:
                writer.writerow([t, repr(ours[t]), repr(theirs[t]), repr(ours[t] / theirs[t])])
            writer.writerow(["ALL", "", "", repr(sne)])
    print(f"report files written to {out_dir}")
    return EXIT_OK


def _final_best(run: RunDir) -> dict[str, float]:
    best: dict[str, float] = {}
    for task_id, _gen, doc in run.iter_individuals():
        if doc["fitness"] is not None:
            best[task_id] = min(best.get(task_id, math.inf), doc["fitness"])
    return {t: f for t, f in best.items() if math.isfinite(f)}


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewardevo",
        description="Multitask LLM-driven discovery of reward programs for "
        "learned black-box optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="run the evolutionary search")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replay", help="JSONL replay script (mock provider)")
    p.add_argument("--resume", help="existing run directory to continue")
    p.add_argument("--out", help="output run directory (default: ./run)")
    p.add_argument("--gmax", type=int, default=None, help="override g_max")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--replace-op",
        action="append",
        metavar="OP=m0",
        help="ablation: replace an operator (m1..c2) with the simple mutation",
    )
    p.add_argument("--disable-kt", action="store_true")
    p.set_defaults(func=cmd_discover)

    # The evaluation settings of eval-reward and transfer.
    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--profile", choices=sorted(BUDGET_PROFILES), default="search")
    evaluation.add_argument("--seed", type=int, default=0)
    evaluation.add_argument("--dimension", type=int, default=10)
    evaluation.add_argument("--suite-seed", type=int, default=0)
    evaluation.add_argument("--fe-budget", type=int, default=None)
    evaluation.add_argument("--train-episodes", type=int, default=None)

    p = sub.add_parser("eval-reward", parents=[evaluation], help="evaluate one reward file")
    p.add_argument("reward", help="path to a .rsl reward file")
    p.add_argument("--task", help="task id (default: file header)")
    p.set_defaults(func=cmd_eval_reward)

    p = sub.add_parser(
        "transfer", parents=[evaluation], help="zero-shot reward transfer between tasks"
    )
    p.add_argument("reward", help="path to the source .rsl reward file")
    p.add_argument("--source-task", help="source task id (default: file header)")
    p.add_argument("--target-task", required=True)
    p.add_argument("--replay", help="JSONL replay script (mock provider)")
    p.add_argument("--provider-config", help="JSON provider configuration file")
    p.add_argument("--out", help="output path for the adapted reward")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("report", help="emit CSV data files from a run directory")
    p.add_argument("run_dir")
    p.add_argument("--baseline", help="ablation run directory for SNE")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except llm.ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
