"""Workloads, output checks and metrics of the corules benchmark.

Every workload runs against the public ``corules`` API on boards of the
tic-tac-toe endgame table, drawn from the ``--seed`` the run is given:

* ``machine-50``: machine-mode training (default ``Params`` apart from
  the node cap below) on seeded 50-row draws; pricing is nearly all of
  the time.  Many small draws keep the run steady across seeds: at 80 rows
  and more, a draw whose final MIP needs hundreds of nodes can cost as
  much as five others.
* ``soft-100``: soft-mode training with the eight true rules on seeded
  100-row draws at budgets 24 and 15; the master LP and the final MIP are
  most of the time.  The final MIP's node count moves with the draw and
  has a long tail, so many small draws keep the run time steadier than a
  few large ones.
* ``score-300k``: 300,000 boards drawn with replacement, binarized with
  ``dataset.apply_columns``, predicted by the bound eight rules and scored
  with ``metrics``; binarization is most of the time.

A run sets up several times, then processes a workload's first draws, and
further draws from the same seeded stream while the time allows.  The time
per draw is averaged over every draw processed; the quality figures come
from the first draws only, so they do not depend on how fast the run is.
Every output is checked with ``corules.metrics``; a failed check counts as
a failed operation and never stops the run.  A traced run wraps the names the
library looks up (see :func:`install_trace`) and turns the spans into
per-layer metrics.
"""

from __future__ import annotations

import itertools
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from corules import colgen, dataset, metrics, ruledsl, solver
from spans import Tracer

# x wins exactly when one of the eight lines holds three x's
TRUE_RULES = """
   (cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x)
OR (cell_r1_c0 == x AND cell_r1_c1 == x AND cell_r1_c2 == x)
OR (cell_r2_c0 == x AND cell_r2_c1 == x AND cell_r2_c2 == x)
OR (cell_r0_c0 == x AND cell_r1_c0 == x AND cell_r2_c0 == x)
OR (cell_r0_c1 == x AND cell_r1_c1 == x AND cell_r2_c1 == x)
OR (cell_r0_c2 == x AND cell_r1_c2 == x AND cell_r2_c2 == x)
OR (cell_r0_c0 == x AND cell_r1_c1 == x AND cell_r2_c2 == x)
OR (cell_r0_c2 == x AND cell_r1_c1 == x AND cell_r2_c0 == x)
"""

SETUP_REPEATS = 3

# branch-and-bound node cap of every training: ten times the most nodes
# seen in one training, so that a rare draw cannot hold a run for minutes
MIP_NODE_LIMIT = 2000

END_TO_END = {
    "draw_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "holdout_accuracy": "ratio",
}

PER_LAYER = {
    "colgen.train_s": "s",
    "colgen.train_self_s": "s",
    "colgen.price_s": "s",
    "colgen.price_calls": "count",
    "colgen.columns_priced": "count",
    "colgen.column_yield": "ratio",
    "colgen.build_master_s": "s",
    "colgen.rounds": "count",
    "colgen.pool_size": "count",
    "colgen.objective": "count",
    "colgen.rule_similarity": "ratio",
    "solver.lp_s": "s",
    "solver.lp_calls": "count",
    "solver.lp_iterations": "count",
    "solver.lp_iterations_max": "count",
    "solver.mip_s": "s",
    "solver.mip_nodes": "count",
    "solver.not_optimal": "count",
    "dataset.generate_s": "s",
    "dataset.binarize_s": "s",
    "dataset.apply_columns_s": "s",
    "dataset.apply_rows_per_s": "rows/s",
    "ruledsl.bind_s": "s",
    "ruledsl.covers_s": "s",
    "ruledsl.covers_rows": "count",
    "metrics.self_s": "s",
    "score_rows_per_s": "rows/s",
    "trace.draw_s": "s",
}


class Tally:
    """Operations attempted and failed; failures are reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, op: Callable[[], list[str]]):
        """Run one operation; it returns the checks it failed, or raises."""
        self.attempted += 1
        try:
            problems = op()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


@dataclass
class DrawResult:
    """What processing one draw produced; quality figures are per model."""

    seconds: float = 0.0
    objective: float = 0.0
    holdout_accuracy: list[float] = field(default_factory=list)
    rule_similarity: list[float] = field(default_factory=list)
    rows_scored: int = 0
    score_seconds: float = 0.0


@dataclass
class Base:
    """The full table, its binarization and the eight true rules."""

    raw: dataset.RawTable
    full: dataset.BinaryDataset
    truth: ruledsl.RuleSet


def base_setup(tracer: Tracer) -> Base:
    with tracer.span("dataset.generate"):
        raw = dataset.generate_tictactoe()
    with tracer.span("dataset.binarize"):
        full = dataset.binarize(raw)
    return Base(raw, full, ruledsl.parse_rules(TRUE_RULES))


@dataclass
class Draw:
    train: dataset.BinaryDataset
    holdout: dataset.RawTable  # the boards left out, binarized when scored


def draw_split(rng: np.random.Generator, full: dataset.BinaryDataset, rows: int) -> Draw:
    """``rows`` boards without replacement, keeping the full table's x-win share."""
    pos, neg = full.P, full.Z
    n_pos = round(rows * pos.size / full.n)
    chosen = np.sort(np.concatenate([
        rng.choice(pos, n_pos, replace=False),
        rng.choice(neg, rows - n_pos, replace=False),
    ]))
    rest = np.setdiff1d(np.arange(full.n), chosen)
    return Draw(full.subset(chosen), full.raw.subset(rest.tolist()))


def apply_columns(tracer: Tracer, raw: dataset.RawTable, columns) -> dataset.BinaryDataset:
    with tracer.span("dataset.apply_columns") as sp:
        out = dataset.apply_columns(raw, columns)
        if sp is not None:
            sp.info["rows"] = out.n
    return out


@dataclass(frozen=True)
class TrainingWorkload:
    """Train on seeded draws, one model per draw and ``Params``.

    ``draws`` is how many draws every run processes; further draws come
    from the same seeded stream while the time allows.
    """

    name: str
    rows: int
    draws: int
    params: tuple[colgen.Params, ...]
    with_truth: bool = False       # give the eight rules as human input
    exact_budget: int | None = None  # budget that must give back the eight rules

    def setup(self, seed: int, tracer: Tracer):
        """The first ``draws`` units, and an endless stream of later ones."""
        base = base_setup(tracer)
        rng = np.random.default_rng(seed)
        first = [(base, draw_split(rng, base.full, self.rows)) for _ in range(self.draws)]
        later = ((base, draw_split(rng, base.full, self.rows)) for _ in itertools.count())
        return first, later

    def run_draw(self, unit, tracer: Tracer, tally: Tally) -> DrawResult:
        base, draw = unit
        human = colgen.HumanInput(rules=base.truth) if self.with_truth else None
        out = DrawResult()
        for params in self.params:
            tally.run(
                f"train on {self.rows} boards at budget {params.complexity_budget}",
                lambda: self._train(draw, human, params, base, tracer, out),
            )
        return out

    def _train(self, draw: Draw, human, params, base: Base, tracer: Tracer,
               out: DrawResult) -> list[str]:
        with tracer.span("colgen.train") as sp:
            rule_set, report = colgen.train(draw.train, human, params)
            if sp is not None:
                sp.info["report"] = report  # for the trace self-check

        # independent recomputation of what train reports
        with tracer.span("ruledsl.bind"):
            bound, train_ds = ruledsl.bind(rule_set, draw.train)
        with tracer.span("metrics.hamming_loss"):
            hamming = metrics.hamming_loss(bound, train_ds)
        with tracer.span("metrics.accuracy"):
            train_accuracy = metrics.accuracy(bound, train_ds)
        with tracer.span("metrics.ruleset_similarity"):
            similarity = metrics.ruleset_similarity(rule_set, base.truth)
        unselected = sum(not kept for kept in report.human_selected.values())
        penalty = (
            params.human_weight * train_ds.n * unselected
            if params.mode == colgen.MODE_SOFT else 0.0
        )
        problems = []
        if rule_set.total_complexity > params.complexity_budget:
            problems.append(
                f"complexity {rule_set.total_complexity} > budget {params.complexity_budget}"
            )
        if not math.isclose(report.objective, hamming + penalty, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"objective {report.objective} != hamming {hamming} + penalty {penalty}"
            )
        if not math.isclose(report.train_accuracy, train_accuracy, abs_tol=1e-12):
            problems.append(
                f"train_accuracy {report.train_accuracy} != accuracy {train_accuracy}"
            )
        if params.complexity_budget == self.exact_budget and similarity != 1.0:
            problems.append(f"eight true rules not returned (similarity {similarity})")

        t0 = time.perf_counter()
        holdout = apply_columns(tracer, draw.holdout, draw.train.columns)
        with tracer.span("ruledsl.bind"):
            bound, holdout = ruledsl.bind(rule_set, holdout)
        with tracer.span("metrics.accuracy"):
            holdout_accuracy = metrics.accuracy(bound, holdout)
        out.score_seconds += time.perf_counter() - t0
        out.rows_scored += holdout.n

        out.objective += report.objective
        out.holdout_accuracy.append(holdout_accuracy)
        out.rule_similarity.append(similarity)
        return problems


@dataclass(frozen=True)
class ScoringWorkload:
    """Binarize, predict and score seeded rows with the eight true rules.

    The parsed rules are bound to the full-data vocabulary in set-up; no
    training runs, so the training layers' per-layer times read 0 here.
    """

    name: str
    rows: int

    def setup(self, seed: int, tracer: Tracer):
        """One drawn sample, scored once and then again while the time allows."""
        base = base_setup(tracer)
        rng = np.random.default_rng(seed)
        with tracer.span("ruledsl.bind"):
            bound, _ = ruledsl.bind(base.truth, base.full)
        sample = base.raw.subset(rng.integers(0, base.raw.n_rows, self.rows).tolist())
        unit = (bound, base.full.columns, sample)
        return [unit], itertools.repeat(unit)

    def run_draw(self, unit, tracer: Tracer, tally: Tally) -> DrawResult:
        out = DrawResult()
        tally.run(f"score {self.rows} rows", lambda: self._score(*unit, tracer, out))
        return out

    def _score(self, bound: ruledsl.BoundRuleSet, columns, sample: dataset.RawTable,
               tracer: Tracer, out: DrawResult) -> list[str]:
        t0 = time.perf_counter()
        scored = apply_columns(tracer, sample, columns)
        with tracer.span("ruledsl.predict"):
            predicted = bound.predict(scored.matrix)
        with tracer.span("metrics.accuracy"):
            accuracy = metrics.accuracy(bound, scored)
        with tracer.span("metrics.hamming_loss"):
            hamming = metrics.hamming_loss(bound, scored)
        out.score_seconds += time.perf_counter() - t0
        out.rows_scored += scored.n

        problems = []
        mismatched = int(np.count_nonzero(predicted != scored.labels))
        if mismatched:
            problems.append(f"{mismatched} predictions differ from the labels")
        if accuracy != 1.0 or hamming != 0:
            problems.append(f"accuracy {accuracy} and hamming loss {hamming}, want 1.0 and 0")
        out.holdout_accuracy.append(accuracy)
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        TrainingWorkload(
            "machine-50",
            rows=50,
            draws=8,
            params=(colgen.Params(mip_node_limit=MIP_NODE_LIMIT),),
        ),
        TrainingWorkload(
            "soft-100",
            rows=100,
            draws=8,
            params=tuple(
                colgen.Params(
                    complexity_budget=budget,
                    mode=colgen.MODE_SOFT,
                    human_weight=0.05,
                    max_degree=2,
                    mip_node_limit=MIP_NODE_LIMIT,
                )
                for budget in (24, 15)
            ),
            with_truth=True,
            exact_budget=24,
        ),
        ScoringWorkload("score-300k", rows=300_000),
    )
}


# --- tracing --------------------------------------------------------------


def install_trace(tracer: Tracer):
    """Wrap the names ``train`` looks up, plus ``BoundRuleSet.covers``.

    ``colgen`` imports ``solve_lp``, ``solve_binary_mip`` and ``bind`` by
    name, so the wrappers go on the ``colgen`` attributes; wrapping the
    ``solver`` module would miss them.  ``solve_lp`` calls made inside
    branch and bound stay inside ``solver.mip``.
    """
    tracer.wrap(colgen, "price", "colgen.price", lambda args, r: {
        "columns": len(r), "cols": [c.cols for c in r]})
    tracer.wrap(colgen, "build_master", "colgen.build_master", lambda args, r: {
        "pool_size": len(args[0]), "pool": args[0]})
    tracer.wrap(colgen, "solve_lp", "solver.lp", lambda args, r: {
        "iterations": r.iterations, "not_optimal": int(r.status != solver.OPTIMAL)})
    tracer.wrap(colgen, "solve_binary_mip", "solver.mip", lambda args, r: {
        "nodes": r.nodes, "not_optimal": int(r.status != solver.OPTIMAL), "x": r.x})
    tracer.wrap(colgen, "bind", "ruledsl.bind")
    tracer.wrap(ruledsl.BoundRuleSet, "covers", "ruledsl.covers", lambda args, r: {
        "rows": args[1].shape[0]})


def check_trace(tracer: Tracer) -> list[str]:
    """The trace must agree with every ``TrainReport`` it wraps.

    A refactor that stops calling a wrapped name would otherwise read as a
    speed-up of that layer.
    """
    problems = []
    for i, sp in enumerate(tracer.spans):
        report = sp.info.get("report")
        if sp.name != "colgen.train" or report is None:
            continue
        kids = tracer.children(i)
        prices = sum(k.name == "colgen.price" for k in kids)
        if prices != len(report.rounds):
            problems.append(f"{prices} price spans for {len(report.rounds)} rounds")
        nodes = sum(k.info.get("nodes", 0) for k in kids if k.name == "solver.mip")
        if nodes != report.mip_nodes:
            problems.append(f"{nodes} traced MIP nodes, report says {report.mip_nodes}")
        inner = sum(k.seconds for k in kids)
        if inner > sp.seconds:
            problems.append(f"child spans take {inner:.6f} s of a {sp.seconds:.6f} s train")
    return problems


def training_counts(tracer: Tracer) -> dict[str, int]:
    """Rounds, final pool size, columns priced, and priced columns the final
    MIP kept, summed over the train calls that returned."""
    out = {"rounds": 0, "pool_size": 0, "priced": 0, "kept": 0}
    for i, sp in enumerate(tracer.spans):
        if sp.name != "colgen.train" or "report" not in sp.info:
            continue
        kids = tracer.children(i)
        prices = [k for k in kids if k.name == "colgen.price"]
        final_master = [k for k in kids if k.name == "colgen.build_master"][-1]
        final_mip = [k for k in kids if k.name == "solver.mip"][-1]
        priced = {c for k in prices for c in k.info["cols"]}
        pool, x = final_master.info["pool"], final_mip.info["x"]
        out["rounds"] += len(sp.info["report"].rounds)
        out["pool_size"] += final_master.info["pool_size"]
        out["priced"] += sum(k.info["columns"] for k in prices)
        out["kept"] += sum(
            1 for k, col in enumerate(pool.columns) if x[k] > 0.5 and col.cols in priced
        )
    return out


def layer_metrics(tracer: Tracer, results: list[DrawResult]) -> dict[str, float]:
    train_spans = [i for i, sp in enumerate(tracer.spans) if sp.name == "colgen.train"]
    lp = tracer.named("solver.lp")
    counts = training_counts(tracer)
    applied = tracer.total("dataset.apply_columns")
    rows_scored = sum(r.rows_scored for r in results)
    score_seconds = sum(r.score_seconds for r in results)
    return {
        "colgen.train_s": _median([sp.seconds for sp in tracer.named("colgen.train")]),
        "colgen.train_self_s": sum(tracer.self_seconds(i) for i in train_spans),
        "colgen.price_s": tracer.total("colgen.price"),
        "colgen.price_calls": len(tracer.named("colgen.price")),
        "colgen.columns_priced": counts["priced"],
        "colgen.column_yield": counts["kept"] / counts["priced"] if counts["priced"] else 0.0,
        "colgen.build_master_s": tracer.total("colgen.build_master"),
        "colgen.rounds": counts["rounds"],
        "colgen.pool_size": counts["pool_size"],
        "colgen.objective": sum(r.objective for r in results),
        "colgen.rule_similarity": _mean([s for r in results for s in r.rule_similarity]),
        "solver.lp_s": tracer.total("solver.lp"),
        "solver.lp_calls": len(lp),
        "solver.lp_iterations": sum(sp.info.get("iterations", 0) for sp in lp),
        "solver.lp_iterations_max": max((sp.info.get("iterations", 0) for sp in lp), default=0),
        "solver.mip_s": tracer.total("solver.mip"),
        "solver.mip_nodes": tracer.info_sum("solver.mip", "nodes"),
        "solver.not_optimal": sum(
            sp.info.get("not_optimal", 0) + (sp.error is not None)
            for sp in tracer.spans if sp.name in ("solver.lp", "solver.mip")
        ),
        "dataset.generate_s": tracer.total("dataset.generate"),
        "dataset.binarize_s": tracer.total("dataset.binarize"),
        "dataset.apply_columns_s": applied,
        "dataset.apply_rows_per_s": (
            tracer.info_sum("dataset.apply_columns", "rows") / applied if applied else 0.0
        ),
        "ruledsl.bind_s": tracer.total("ruledsl.bind"),
        "ruledsl.covers_s": tracer.total("ruledsl.covers"),
        "ruledsl.covers_rows": tracer.info_sum("ruledsl.covers", "rows"),
        "metrics.self_s": sum(
            tracer.self_seconds(i)
            for i, sp in enumerate(tracer.spans) if sp.name.startswith("metrics.")
        ),
        "score_rows_per_s": rows_scored / score_seconds if score_seconds else 0.0,
        "trace.draw_s": _mean([r.seconds for r in results]),
    }


# --- one run --------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _timed_draw(workload, unit, tracer: Tracer, tally: Tally) -> DrawResult:
    t0 = time.perf_counter()
    result = workload.run_draw(unit, tracer, tally)
    result.seconds = time.perf_counter() - t0
    return result


def run(workload, seed: int, seconds: float, trace: bool, import_seconds: float = 0.0) -> dict:
    """Run one workload and return the result object the harness prints.

    Untraced: set up ``SETUP_REPEATS`` times, process the workload's first
    draws, then further draws while the next one is expected to end within
    ``seconds`` of the start.  ``draw_s`` is the mean time of a draw over
    all of them; ``holdout_accuracy`` comes from the first draws only.
    Traced: one traced set-up and the first draws, traced; the per-layer
    metrics come from their spans.  ``trace.draw_s`` over the ``draw_s``
    of an untraced run of the same seed with ``seconds=0`` (the same draws)
    is the tracing overhead.
    """
    tally = Tally()
    if trace:
        tracer = Tracer()
        install_trace(tracer)
        try:
            first, _ = workload.setup(seed, tracer)
            results = [_timed_draw(workload, unit, tracer, tally) for unit in first]
        finally:
            tracer.restore()
        tally.run("trace self-check", lambda: check_trace(tracer))
        values = layer_metrics(tracer, results)
        names = PER_LAYER
    else:
        off = Tracer(enabled=False)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            first, later = workload.setup(seed, off)
            setups.append(time.perf_counter() - t0)
        start = time.perf_counter()
        results = [_timed_draw(workload, unit, off, tally) for unit in first]
        while time.perf_counter() - start + _mean([r.seconds for r in results]) <= seconds:
            results.append(_timed_draw(workload, next(later), off, tally))
        values = {
            "draw_s": _mean([r.seconds for r in results]),
            "setup_s": import_seconds + _median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - tally.failed / tally.attempted,
            "holdout_accuracy": _mean(
                [a for r in results[:len(first)] for a in r.holdout_accuracy]
            ),
        }
        names = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
