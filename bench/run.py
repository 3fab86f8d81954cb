"""rewardevo benchmark: replay-mock discovery runs and reward scoring.

    python3 bench/run.py --workload discover-serial --seed 1 --seconds 55 --trace 0

Workloads (bench/README.md says why each exists; ``BENCHMARK.json`` gates the
first and the last):

- ``discover-serial``: one replay-mock discovery run over the three tasks
  through ``rewardevo discover``, with ``--workers 1``;
- ``discover-2workers``: the same run, same seed and replay, ``--workers 2``
  (run by hand: its wall time is too noisy on a shared 2-vCPU host to gate);
- ``score-rewards``: ``evaluate_fitness`` of the six bundled rewards, serially,
  with one budget per task.

A run builds its inputs from ``--seed``, repeats whole operations (one
discovery run, or one scoring pass) for at most ``--seconds``, checks
every output, and prints one JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations,
reports the per-layer metrics of the traced ones, and writes a trace file and
the reference layer table under ``.bench_runs/``.
"""

import time

START = time.perf_counter()  # set-up is timed from the script's first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import replay  # noqa: E402
from reference import format_table, reference_table  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"

WORKLOADS = ("discover-serial", "discover-2workers", "score-rewards")

TASKS = ["de-operator-selection", "pso-parameter-control", "algorithm-selection"]

# Criterion-4 shape (K=3, N=2, gamma=1, d=5) cut to one generation and the
# smallest budget every task accepts. One init attempt per niche (N - 1) makes
# every seed do the same number of evaluations.
DISCOVERY_CONFIG = {
    "tasks": TASKS,
    "dimension": 5,
    "niche_size": 2,
    "g_max": 1,
    "gamma": 1,
    "fe_budget": 200,
    "train_episodes": 1,
    "max_init_attempts": 1,
}

# (gamma, fe_budget, train_episodes) per task, sized so that each task's
# anchor + discovered pair takes about the same time. PSO trains in rounds of
# 1 + lambda = 5 episodes, so its train_episodes is a multiple of 5.
SCORE_DIMENSION = 5
SCORE_BUDGETS = {
    "de-operator-selection": (1, 100, 1),
    "pso-parameter-control": (1, 1000, 5),
    "algorithm-selection": (1, 4000, 2),
}


class ProviderStats:
    def __init__(self):
        self.calls = 0
        self.failures = 0


class CountingProvider:
    """Counts the LLM calls of a run and the ones that raised."""

    def __init__(self, inner, stats: ProviderStats):
        self.inner = inner
        self.stats = stats

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def complete(self, template_id, prompt, temperature=None):
        from rewardevo import llm

        self.stats.calls += 1
        try:
            return self.inner.complete(template_id, prompt, temperature)
        except llm.ProviderError:
            self.stats.failures += 1
            raise


@dataclass
class OpResult:
    wall: float
    evals: int  # fitness evaluations computed
    fes: int  # sum of budget_used over the computed reports
    attempted: int
    failed: int
    errors: list
    fingerprint: str  # the outputs, compared across repeated operations
    llm_failures: int = 0
    rejections: int = 0


class Discovery:
    """One replay-mock discovery run per operation, through the CLI."""

    def __init__(self, seed: int, workers: int, workdir: Path):
        from rewardevo import cli, envs, llm, problems, rsl
        from rewardevo.fitness import EvalBudget

        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.config = dict(DISCOVERY_CONFIG, seed=seed, suite_seed=seed, workers=workers)
        script = replay.discovery_script(self.config, seed)
        for entry in script:
            if "task_id" in entry:
                _thought, source = llm.parse_individual(entry["response"])
                rsl.validate(rsl.parse(source), envs.get_schema(entry["task_id"]).names())
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.replay_path = workdir / "replay.jsonl"
        self.replay_path.write_text(
            "".join(json.dumps(e) + "\n" for e in script), encoding="utf-8"
        )
        self.budget_parts = (1, self.config["fe_budget"], self.config["train_episodes"])
        self.budget = EvalBudget(*self.budget_parts)
        self.suite = problems.make_suite(self.config["dimension"], seed)
        self.tasks = {
            t: envs.make_task(t, self.suite, max_fes=self.config["fe_budget"])
            for t in TASKS
        }
        self.cli = cli
        self.stats = ProviderStats()
        self._run_discovery = cli.run_discovery
        stats = self.stats
        original = self._run_discovery

        def counted_run_discovery(config, provider, *args, **kwargs):
            return original(config, CountingProvider(provider, stats), *args, **kwargs)

        cli.run_discovery = counted_run_discovery
        self.last_dir = None
        self.last = None

    def close(self):
        self.cli.run_discovery = self._run_discovery

    def run_once(self, index: int) -> OpResult:
        out = self.workdir / f"run-{index}"
        argv = [
            "discover", "--config", str(self.config_path),
            "--replay", str(self.replay_path), "--out", str(out),
            "--seed", str(self.seed), "--workers", str(self.workers),
        ]
        calls, failures = self.stats.calls, self.stats.failures
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - start
        calls = self.stats.calls - calls
        llm_failures = self.stats.failures - failures

        errors = [] if code == 0 else [f"rewardevo discover exited with {code}"]
        reports = {
            p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((out / "fitness-cache").glob("*.json"))
        }
        snapshot = json.loads(
            (out / "snapshots" / f"gen-{self.config['g_max']}.json").read_text(encoding="utf-8")
        )
        registry = snapshot["registry"]
        exchanges = [
            json.loads(line)["template_id"]
            for line in (out / "exchanges.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        transfers_path = out / "transfers.jsonl"
        transfers = [
            json.loads(line)
            for line in (
                transfers_path.read_text(encoding="utf-8").splitlines()
                if transfers_path.exists()
                else []
            )
        ]
        invalid = sum(1 for r in reports.values() if r["invalid_flag"])
        for report in reports.values():
            if not report["invalid_flag"]:
                errors += checks.report_errors(
                    report, *self.budget_parts, len(self.suite.test_instances)
                )
        errors += checks.discovery_errors(
            list(registry.values()),
            transfers,
            exchanges.count("kt_reflect"),
            TASKS,
            self.config["niche_size"],
            self.config["g_max"],
            len(TASKS),
        )
        # Every accepted code response becomes one individual; the rest were
        # rejected by the response parser or the schema check.
        made = sum(1 for ind in registry.values() if ind["operator"] != "expert")
        rejections = sum(1 for t in exchanges if t in replay.CODE_TEMPLATES) - made
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir)
        self.last_dir = out
        self.last = (reports, registry)
        fingerprint = json.dumps([reports, registry], sort_keys=True)
        return OpResult(
            wall=wall,
            evals=len(reports),
            fes=sum(r["budget_used"] for r in reports.values()),
            attempted=calls + len(reports),
            failed=llm_failures + rejections + invalid,
            errors=errors,
            fingerprint=fingerprint,
            llm_failures=llm_failures,
            rejections=rejections,
        )

    def recompute(self, rng: random.Random, sample: int = 2) -> list[str]:
        """Re-evaluate a seeded sample of the last run's candidates with a
        direct evaluate_fitness call, outside the scheduler and its cache."""
        from rewardevo import rsl
        from rewardevo.fitness import evaluate_fitness, job_key

        reports, registry = self.last
        errors = []
        for ind_id in rng.sample(sorted(registry), sample):
            ind = registry[ind_id]
            program = rsl.parse(ind["source"])
            key = job_key(program.content_hash, ind["task_id"], self.seed, self.budget)
            recorded = reports.get(key)
            fresh = evaluate_fitness(
                program, self.tasks[ind["task_id"]], self.suite, self.budget, self.seed
            ).to_dict()
            errors += checks.recompute_errors(ind_id, recorded, fresh)
            if recorded is not None and recorded["fitness"] != ind["fitness"]:
                errors.append(f"{ind_id}: individual fitness differs from its report")
        return errors


class Scoring:
    """One serial evaluate_fitness pass over the six bundled rewards."""

    def __init__(self, seed: int):
        from rewardevo import envs, fitness, problems
        from rewardevo.fitness import EvalBudget

        self.seed = seed
        # Called through the package attribute, where the tracer patches it.
        self.fitness = fitness
        self.suite = problems.make_suite(SCORE_DIMENSION, seed)
        self.budgets = {t: EvalBudget(*parts) for t, parts in SCORE_BUDGETS.items()}
        self.tasks = {
            t: envs.make_task(t, self.suite, max_fes=SCORE_BUDGETS[t][1]) for t in TASKS
        }
        self.programs = [
            (task, kind, load(task))
            for task in TASKS
            for kind, load in (
                ("anchor", envs.handcrafted_reward),
                ("discovered", envs.discovered_reward),
            )
        ]
        self.last = None

    def close(self):
        pass

    def _evaluate(self, task, program):
        return self.fitness.evaluate_fitness(
            program, self.tasks[task], self.suite, self.budgets[task], self.seed
        ).to_dict()

    def run_once(self, index: int) -> OpResult:
        start = time.perf_counter()
        reports = [self._evaluate(task, program) for task, _kind, program in self.programs]
        wall = time.perf_counter() - start
        errors = []
        invalid = 0
        for (task, kind, _p), report in zip(self.programs, reports):
            if report["invalid_flag"]:
                invalid += 1
                continue
            errors += [
                f"{task}/{kind}: {e}"
                for e in checks.report_errors(
                    report, *SCORE_BUDGETS[task], len(self.suite.test_instances)
                )
            ]
        self.last = reports
        return OpResult(
            wall=wall,
            evals=len(reports),
            fes=sum(r["budget_used"] for r in reports),
            attempted=len(reports),
            failed=invalid,
            errors=errors,
            fingerprint=json.dumps(reports, sort_keys=True),
        )

    def recompute(self, rng: random.Random, sample: int = 1) -> list[str]:
        errors = []
        for i in rng.sample(range(len(self.programs)), sample):
            task, kind, program = self.programs[i]
            errors += checks.recompute_errors(
                f"{task}/{kind}", self.last[i], self._evaluate(task, program)
            )
        return errors


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(args, workdir: Path) -> dict:
    if args.workload == "score-rewards":
        workload = Scoring(args.seed)
    else:
        workers = 2 if args.workload == "discover-2workers" else 1
        workload = Discovery(args.seed, workers, workdir)
    tracer = Tracer(CountingProvider) if args.trace else None

    measure_start = time.perf_counter()
    setup_s = measure_start - START
    ops: list[tuple[OpResult, bool]] = []
    try:
        # Traced runs alternate untraced and traced operations, so the
        # tracing overhead is measured under the same conditions. A further
        # operation starts only if one of median length still ends within
        # --seconds, so a run's length does not depend on where the last
        # operation happens to start.
        while len(ops) < (2 if tracer else 1) or (
            time.perf_counter() - measure_start
            + statistics.median(r.wall for r, _ in ops)
            <= args.seconds
        ):
            traced = tracer is not None and len(ops) % 2 == 1
            if traced:
                tracer.install()
            try:
                result = workload.run_once(len(ops))
            finally:
                if traced:
                    tracer.uninstall()
            ops.append((result, traced))
            print(
                f"op {len(ops)}: {result.wall:.3f} s, {result.evals} evaluations"
                + (" (traced)" if traced else ""),
                file=sys.stderr,
            )
        errors = [e for result, _ in ops for e in result.errors]
        if len({result.fingerprint for result, _ in ops}) != 1:
            errors.append("repeated operations with the same inputs gave different outputs")
        errors += workload.recompute(random.Random(args.seed))
    finally:
        workload.close()

    results = [r for r, _ in ops]
    doc = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
    }
    if tracer is None:
        walls = [r.wall for r in results]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "evals_per_s": (statistics.median(r.evals / r.wall for r in results), "1/s"),
            "fes_per_s": (statistics.median(r.fes / r.wall for r in results), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        traced = [r for r, t in ops if t]
        plain = [r for r, t in ops if not t]
        metrics = tracer.metrics(
            len(traced),
            sum(r.llm_failures for r in traced),
            sum(r.rejections for r in traced),
        )
        overhead = (
            statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in plain)
            - 1.0
        )
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        write_trace_file(args, tracer, metrics, ops)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return doc


def write_trace_file(args, tracer, metrics, ops) -> None:
    table = reference_table()
    print(format_table(table), file=sys.stderr)
    path = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "machine": machine_info(),
                "op_walls_s": [[r.wall, traced] for r, traced in ops],
                "metrics": {k: v for k, (v, _u) in metrics.items()},
                "spans": tracer.span_summary(),
                "reference": table,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"trace written to {path}", file=sys.stderr)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rewardevo").is_dir():
        print(f"error: no rewardevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    # The environment override would change the workload's worker count.
    os.environ.pop("REWARDEVO_WORKERS", None)
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS_DIR))
    try:
        doc = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
