"""DNF rule-set learning by column generation, with expert rules blended in.

The model selects a set of conjunctions (an OR-of-ANDs classifier) by
minimizing Hamming loss: each uncovered positive sample costs one, and each
selected conjunction covering a negative sample costs one.  Selection
variables ``w_k`` (one per candidate conjunction) and slack variables
``xi_i`` (one per positive sample) are tied together by covering rows

    xi_i + sum_{k covers i} w_k >= 1        for every positive i,

and the total degree of the selected conjunctions is capped by a
complexity budget.  See Dash, Gunluk & Wei, "Boolean decision rules via
column generation" (NeurIPS 2018) for the base formulation.

Because the candidate set is exponential, the restricted problem is grown
by column generation: solve the LP relaxation of the current pool, then
search for out-of-pool conjunctions whose reduced cost

    r(k) = false_positives(k) - sum_{covered positives i} mu_i
           + lambda * degree(k)            [+ template-distance penalty]

is negative under the LP duals (mu on covering rows, lambda on the
budget).  The pricing search is exhaustive over literal sets up to a
degree cap.  It evaluates the children of a whole block of search nodes
with two matrix products (mu mass and false positives) and prunes with an
admissible bound (the false-positive term is nonnegative, the mu term only
shrinks as literals are added, and the degree term grows).  Every node
that passes the bound is expanded, so an empty result certifies that no
bounded-degree conjunction can improve the relaxation.  The loop ends with
one binary solve restricted to the generated pool.

Expert knowledge enters three ways, chosen by ``Params.mode``:

* ``soft``: each provided rule left out of the model adds a penalty of
  ``human_weight * n``, so the optimizer pays a data-scaled price for
  overriding the expert.
* ``hard``: provided rules are forced into the model by fixing their
  selection variables at one (infeasible budgets are reported as such).
* ``templates``: partial conjunctions act as attractors; every candidate
  pays ``template_weight`` times its distance to the nearest template.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataset import BinaryDataset
from .metrics import template_distance
from .ruledsl import (
    HUMAN,
    MACHINE,
    BoundRuleSet,
    Conjunction,
    RuleSet,
    Template,
    bind,
    literal_for_column,
)
from . import solver
from .solver import LinearProgram, solve_binary_mip, solve_lp

MODE_MACHINE = "machine"
MODE_SOFT = "soft"
MODE_HARD = "hard"
MODE_TEMPLATES = "templates"
MODES = (MODE_MACHINE, MODE_SOFT, MODE_HARD, MODE_TEMPLATES)


class TrainingError(RuntimeError):
    pass


class BudgetInfeasibleError(TrainingError):
    """Hard-mode human rules alone exceed the complexity budget."""


class NoPositivesError(TrainingError):
    """The training split contains no positive sample."""


@dataclass(frozen=True)
class Params:
    """Knobs of one training run."""

    complexity_budget: int = 24
    human_weight: float = 0.05      # per unselected rule, as a fraction of n
    template_weight: float = 1.0    # per unit of template distance
    max_degree: int = 4
    mode: str = MODE_MACHINE
    max_cg_rounds: int = 50
    columns_per_round: int = 20
    tolerance: float = 1e-6
    mip_node_limit: int = 200_000

    def __post_init__(self):
        if self.complexity_budget < 1:
            raise ValueError("complexity budget must be >= 1")
        if self.human_weight < 0 or self.template_weight < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.max_degree < 1:
            raise ValueError("max degree must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.columns_per_round < 1:
            raise ValueError("columns per round must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HumanInput:
    """Exact rules and/or partial templates provided by a person."""

    rules: RuleSet | None = None
    templates: tuple[Template, ...] = ()


@dataclass
class PoolColumn:
    cols: frozenset[int]
    conjunction: Conjunction
    pos_cover: np.ndarray  # bool over positive samples, in dataset.P order
    fp_count: int
    is_human: bool
    distance: float = 0.0  # to the nearest template, 0 when unused

    @property
    def complexity(self) -> int:
        return len(self.cols)


class ColumnPool:
    """The restricted candidate set, with cached coverage per column."""

    def __init__(self, dataset: BinaryDataset, templates: Sequence[Template] = ()):
        self.dataset = dataset
        self.templates = tuple(templates)
        self.columns: list[PoolColumn] = []
        self._index: dict[frozenset[int], int] = {}
        self._pos = dataset.P
        self._neg = dataset.Z

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @property
    def keys(self) -> set[frozenset[int]]:
        return set(self._index)

    def add(self, cols: Iterable[int], provenance: str, is_human: bool = False) -> bool:
        key = frozenset(int(j) for j in cols)
        if not key:
            raise ValueError("empty conjunction")
        if key in self._index:
            if is_human:
                self.columns[self._index[key]].is_human = True
            return False
        matrix = self.dataset.matrix
        cover = np.ones(self.dataset.n, dtype=bool)
        for j in key:
            cover &= matrix[:, j]
        conj = Conjunction(
            frozenset(literal_for_column(self.dataset.columns[j]) for j in key),
            provenance,
        )
        dist = template_distance(conj, self.templates) if self.templates else 0.0
        self._index[key] = len(self.columns)
        self.columns.append(
            PoolColumn(
                cols=key,
                conjunction=conj,
                pos_cover=cover[self._pos],
                fp_count=int(np.count_nonzero(cover[self._neg])),
                is_human=is_human,
                distance=dist,
            )
        )
        return True

    def audit_coverage(self) -> bool:
        """Recheck every cached bitset against literal evaluation."""
        matrix = self.dataset.matrix
        for col in self.columns:
            cover = np.ones(self.dataset.n, dtype=bool)
            for j in col.cols:
                cover &= matrix[:, j]
            if not np.array_equal(cover[self._pos], col.pos_cover):
                return False
            if int(np.count_nonzero(cover[self._neg])) != col.fp_count:
                return False
        return True


@dataclass
class MasterModel:
    lp: LinearProgram
    offset: float  # constant penalty mass excluded from the LP objective
    n_pool: int
    n_pos: int
    pool: ColumnPool
    params: Params


@dataclass
class MasterSolution:
    w: np.ndarray
    xi: np.ndarray
    mu: np.ndarray  # covering-row duals, clamped nonnegative
    lam: float      # budget dual, nonnegative
    objective: float  # LP value plus the constant offset
    status: str
    iterations: int


def build_master(
    pool: ColumnPool, dataset: BinaryDataset, params: Params
) -> MasterModel:
    """Assemble the restricted covering LP for the current pool.

    Objective coefficient of ``w_k`` is its false-positive count, minus the
    soft human credit when k is a provided rule, plus the weighted template
    distance in templates mode.  The constant ``human_weight * n * |U|`` is
    tracked as an offset so reported objectives count every unselected rule.
    In hard mode, provided rules get a fixed lower bound of one instead.
    """
    pos = dataset.P
    n_pos = pos.size
    if n_pos == 0:
        raise NoPositivesError("dataset has no positive samples")
    n_pool = len(pool)
    n_vars = n_pool + n_pos
    cu_n = params.human_weight * dataset.n

    human_cols = [k for k, col in enumerate(pool.columns) if col.is_human]
    if params.mode == MODE_HARD:
        forced = sum(pool.columns[k].complexity for k in human_cols)
        if forced > params.complexity_budget:
            raise BudgetInfeasibleError(
                "human rules exceed complexity budget: "
                f"{forced} > {params.complexity_budget}"
            )

    objective = np.zeros(n_vars)
    for k, col in enumerate(pool.columns):
        coeff = float(col.fp_count)
        if params.mode == MODE_SOFT and col.is_human:
            coeff -= cu_n
        if params.mode == MODE_TEMPLATES:
            coeff += params.template_weight * col.distance
        objective[k] = coeff
    objective[n_pool:] = 1.0

    rows = np.zeros((n_pos + 1, n_vars))
    for k, col in enumerate(pool.columns):
        rows[:n_pos, k] = col.pos_cover
        rows[n_pos, k] = col.complexity
    rows[np.arange(n_pos), n_pool + np.arange(n_pos)] = 1.0

    senses = (solver.GE,) * n_pos + (solver.LE,)
    rhs = np.concatenate([np.ones(n_pos), [float(params.complexity_budget)]])
    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)  # xi <= 1 is tight anyway; w <= 1 matches binarity
    if params.mode == MODE_HARD:
        for k in human_cols:
            lower[k] = 1.0

    offset = cu_n * len(human_cols) if params.mode == MODE_SOFT else 0.0
    lp = LinearProgram(objective, rows, senses, rhs, lower, upper)
    return MasterModel(lp, offset, n_pool, n_pos, pool, params)


def _master_start(model: MasterModel) -> np.ndarray:
    # all-slack start (xi = 1, w = 0) satisfies every covering row, so the
    # LP needs no feasibility phase
    start = np.zeros(model.lp.n_vars)
    start[model.n_pool :] = 1.0
    return start


def _master_basis_hint(model: MasterModel) -> list[int | None]:
    # seat the xi variables in the basis: entering conjunction columns then
    # displace them with nondegenerate steps instead of grinding on the
    # fully degenerate all-slack basis
    hint: list[int | None] = [model.n_pool + i for i in range(model.n_pos)]
    hint.append(None)  # budget row keeps its slack
    return hint


def solve_master(model: MasterModel) -> MasterSolution:
    sol = solve_lp(
        model.lp,
        eps=model.params.tolerance,
        start=_master_start(model),
        basis_hint=_master_basis_hint(model),
    )
    if sol.status != solver.OPTIMAL:
        return MasterSolution(
            np.zeros(model.n_pool), np.zeros(model.n_pos),
            np.zeros(model.n_pos), 0.0,
            float("nan"), sol.status, sol.iterations,
        )
    w = sol.x[: model.n_pool]
    xi = sol.x[model.n_pool :]
    mu = np.maximum(sol.duals[: model.n_pos], 0.0)
    lam = max(0.0, -float(sol.duals[model.n_pos]))
    return MasterSolution(
        w, xi, mu, lam, sol.objective + model.offset, sol.status, sol.iterations
    )


@dataclass(frozen=True)
class PricedCandidate:
    cols: frozenset[int]
    reduced_cost: float


class PricedCandidates(list):
    """The candidates :func:`price` returns, most negative first.

    ``found`` counts the out-of-pool conjunctions whose reduced cost is
    below ``-tolerance``, before ``limit`` keeps the most negative ones.
    """

    def __init__(self, candidates: Iterable[PricedCandidate] = (), found: int = 0):
        super().__init__(candidates)
        self.found = found


# Most search nodes that pricing evaluates with one matrix product.  A
# block's covers are built only when it is taken off the stack, and the
# stack keeps at most one parent block per depth alive, so the covers
# pricing holds stay near max_degree * _PRICE_BLOCK * n bools whatever the
# data size.
_PRICE_BLOCK = 2048


def price(
    duals: tuple[np.ndarray, float],
    dataset: BinaryDataset,
    params: Params,
    templates: Sequence[Template] = (),
    exclude: set[frozenset[int]] | frozenset = frozenset(),
    limit: int | None = None,
) -> PricedCandidates:
    """Exhaustive bounded-degree search for negative-reduced-cost conjunctions.

    A search node is a literal set in increasing column order; its
    children add one column after its last.  Nodes are evaluated in blocks
    of at most ``_PRICE_BLOCK``: with the block's covers as bool rows, one
    product with the mu-weighted positive bits gives every child's mu mass
    and one with the negative bits its false positives (exact integers in
    float64).  A child is a candidate when its reduced cost is below
    ``-tolerance``, and is searched further when its best imaginable
    descendant (zero false positives, the same mu mass, one more literal of
    degree cost) could still get there.  That bound is admissible (false
    positives are nonnegative, the mu mass only shrinks as literals are
    added and the degree term grows), and every node that passes it is
    expanded, so the search visits the same nodes as a one-node-at-a-time
    depth-first walk and an empty return certifies there is nothing to add
    within the degree cap.  Only the summation order of the mu mass
    differs, so reduced costs agree with a one-by-one evaluation to
    rounding.

    In templates mode the weighted template distance is computed only for
    a candidate whose template-free reduced cost is already below
    ``-tolerance``.  That is exact: the distance is nonnegative, so no
    other node could qualify, and the descent bound never uses it.  Such a
    node covers a positive sample (its mu mass is positive), so its
    literals are consistent and form a valid conjunction; contradictory
    literal sets such as ``a == x AND a == o`` are never built.
    Conjunctions in ``exclude`` (the pool) are skipped.  The result is
    sorted by reduced cost, ties by column tuple, and cut to ``limit``.
    """
    mu, lam = duals
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    lam = max(float(lam), 0.0)
    eps = params.tolerance
    m = dataset.n_columns
    depth = min(params.max_degree, m)
    if depth == 0:
        return PricedCandidates()
    bits_p = dataset.matrix[dataset.P]
    bits_z = dataset.matrix[dataset.Z]
    mass = mu[:, None] * bits_p
    fp_bits = bits_z.astype(float)
    col_bits_p = np.ascontiguousarray(bits_p.T)
    col_bits_z = np.ascontiguousarray(bits_z.T)
    col_index = np.arange(m)

    # A literal set is coded by its digits j + 1 in base m + 1, padded with
    # zeros to ``depth`` digits, so codes order like column tuples.  Codes
    # that outgrow int64 stay exact as Python ints.
    radix = m + 1
    code_type = np.int64 if radix**depth < 2**63 else object
    pad = [radix ** (depth - d) for d in range(depth + 1)]

    def encode(cols) -> int:
        code = 0
        for j in sorted(cols):
            code = code * radix + j + 1
        return code * pad[len(cols)]

    def decode(code: int) -> frozenset[int]:
        cols = []
        while code:
            code, digit = divmod(code, radix)
            if digit:
                cols.append(digit - 1)
        return frozenset(cols)

    found_rc: list[np.ndarray] = []
    found_code: list[np.ndarray] = []
    # an entry is a block not yet built: its parents' codes and covers,
    # the rows of those parents and the column each child adds
    stack: list[tuple[np.ndarray, ...]] = []

    def expand(degree, codes, cov_p, cov_z, last):
        mu_sum = cov_p.astype(float) @ mass
        rc = cov_z.astype(float) @ fp_bits - mu_sum + lam * degree
        fresh = col_index > last[:, None]
        rows, js = np.nonzero(fresh & (rc < -eps))
        found_rc.append(rc[rows, js])
        found_code.append((codes[rows] * radix + js + 1) * pad[degree])
        if degree < depth:
            rows, js = np.nonzero(fresh & (lam * (degree + 1) - mu_sum < -eps))
            for s in range(0, rows.size, _PRICE_BLOCK):
                part = slice(s, s + _PRICE_BLOCK)
                stack.append((degree + 1, codes, cov_p, cov_z, rows[part], js[part]))

    expand(
        1,
        np.zeros(1, dtype=code_type),
        np.ones((1, bits_p.shape[0]), dtype=bool),
        np.ones((1, bits_z.shape[0]), dtype=bool),
        np.array([-1]),
    )
    while stack:
        degree, codes, cov_p, cov_z, rows, js = stack.pop()
        expand(
            degree,
            codes[rows] * radix + js + 1,
            cov_p[rows] & col_bits_p[js],
            cov_z[rows] & col_bits_z[js],
            js,
        )

    rc = np.concatenate(found_rc)
    codes = np.concatenate(found_code)
    pool = [encode(key) for key in exclude if len(key) <= depth]
    if pool and rc.size:
        keep = ~np.isin(codes, np.array(pool, dtype=code_type))
        rc, codes = rc[keep], codes[keep]
    if params.mode == MODE_TEMPLATES and params.template_weight > 0.0 and rc.size:
        lits = [literal_for_column(meta) for meta in dataset.columns]
        distance = np.array([
            template_distance(
                Conjunction(frozenset(lits[j] for j in decode(code))), templates
            )
            for code in codes.tolist()
        ])
        rc = rc + params.template_weight * distance
        keep = rc < -eps
        rc, codes = rc[keep], codes[keep]

    found = int(rc.size)
    if limit is not None and limit < found:
        # everything tied with the limit-th smallest reduced cost competes
        keep = rc <= np.partition(rc, limit - 1)[limit - 1]
        rc, codes = rc[keep], codes[keep]
    order = np.lexsort((codes, rc))[:limit]
    return PricedCandidates(
        (PricedCandidate(decode(int(codes[i])), float(rc[i])) for i in order),
        found=found,
    )


@dataclass
class TrainReport:
    """Everything observable about one training run."""

    mode: str
    n_samples: int
    params: Params
    lp_objectives: list[float] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)
    mip_status: str = ""
    mip_nodes: int = 0
    mip_objective: float = float("nan")
    objective: float = float("nan")  # hamming + human_weight * n * unselected
    hamming: int = 0
    template_penalty: float = 0.0
    human_rules: list[str] = field(default_factory=list)
    human_selected: dict[str, bool] = field(default_factory=dict)
    unselected_human_count: int = 0
    pricing_exact_within_degree: bool = True
    warnings: list[str] = field(default_factory=list)
    train_accuracy: float = float("nan")
    train_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _lex_key(conj: Conjunction) -> tuple:
    return tuple(lit.sort_key() for lit in conj.sorted_literals())


def train(
    dataset: BinaryDataset,
    human: HumanInput | None = None,
    params: Params = Params(),
) -> tuple[RuleSet, TrainReport]:
    """Run the full column-generation loop and return the selected rule set.

    Seeds the pool with every provided rule plus all degree-1 conjunctions,
    alternates restricted LP solves with exact pricing until no improving
    conjunction exists (or the round limit trips, with a warning), then
    solves the pool-restricted binary problem.  The reported objective is
    recomputed from the returned rule set: Hamming loss plus
    ``human_weight * n`` per unselected human rule.
    """
    t0 = time.perf_counter()
    report = TrainReport(mode=params.mode, n_samples=dataset.n, params=params)

    human_col_sets: list[frozenset[int]] = []
    templates: tuple[Template, ...] = ()
    if params.mode in (MODE_SOFT, MODE_HARD):
        if human is not None and human.rules is not None and len(human.rules):
            bound, dataset = bind(human.rules, dataset)
            human_col_sets = list(bound.column_sets)
            report.human_rules = [c.render() for c in human.rules.conjunctions]
    elif params.mode == MODE_TEMPLATES:
        if human is None or not human.templates:
            raise TrainingError("templates mode requires a non-empty template set")
        templates = tuple(human.templates)

    template_col_sets: list[frozenset[int]] = []
    if params.mode == MODE_TEMPLATES:
        # templates are valid conjunctions themselves (distance zero); bind
        # them all first so any synthesized columns exist before seeding
        for template in templates:
            rs = RuleSet((Conjunction(template.literals, HUMAN),))
            b, dataset = bind(rs, dataset)
            template_col_sets.append(b.column_sets[0])

    if dataset.P.size == 0:
        raise NoPositivesError("training data has no positive samples")
    report.n_samples = dataset.n

    pool = ColumnPool(dataset, templates=templates)
    for cols in human_col_sets:
        pool.add(cols, HUMAN, is_human=True)
    for cols in template_col_sets:
        pool.add(cols, HUMAN)
    for j in range(dataset.n_columns):
        pool.add((j,), MACHINE)

    for round_no in range(params.max_cg_rounds):
        master = build_master(pool, dataset, params)
        msol = solve_master(master)
        if msol.status != solver.OPTIMAL:
            report.warnings.append(
                f"restricted LP stopped with status {msol.status}; "
                "proceeding to the binary solve"
            )
            break
        report.lp_objectives.append(msol.objective)
        t_price = time.perf_counter()
        candidates = price(
            (msol.mu, msol.lam),
            dataset,
            params,
            templates=templates,
            exclude=pool.keys,
            limit=params.columns_per_round,
        )
        report.rounds.append(
            {
                "round": round_no,
                "lp_objective": msol.objective,
                "pool_size": len(pool),
                "columns_added": len(candidates),
                "min_reduced_cost": candidates[0].reduced_cost if candidates else 0.0,
                "price_seconds": time.perf_counter() - t_price,
                "price_candidates": candidates.found,
            }
        )
        if not candidates:
            break
        for cand in candidates:
            pool.add(cand.cols, MACHINE)
    else:
        report.warnings.append("column generation stopped at the round limit")

    master = build_master(pool, dataset, params)
    mip = solve_binary_mip(
        master.lp,
        binary_vars=range(len(pool)),
        eps=params.tolerance,
        node_limit=params.mip_node_limit,
        start=_master_start(master),
        basis_hint=_master_basis_hint(master),
    )
    report.mip_status = mip.status
    report.mip_nodes = mip.nodes
    if mip.x is None:
        raise TrainingError(
            f"final binary master ended with status {mip.status} and no incumbent"
        )
    if mip.status == solver.ITERATION_LIMIT:
        report.warnings.append(
            "branch and bound hit the node budget; keeping the best incumbent"
        )
    report.mip_objective = float(mip.objective + master.offset)

    selected = [k for k in range(len(pool)) if mip.x[k] > 0.5]
    selected_cols = [pool.columns[k] for k in selected]
    selected_cols.sort(key=lambda col: _lex_key(col.conjunction))
    positive_label = dataset.raw.label if dataset.raw is not None else "true"
    rule_set = RuleSet(
        tuple(col.conjunction for col in selected_cols), positive_label
    )

    # Eq-style accounting, recomputed from the returned rule set
    covered_pos = np.zeros(dataset.P.size, dtype=bool)
    fp_units = 0
    for col in selected_cols:
        covered_pos |= col.pos_cover
        fp_units += col.fp_count
    hamming = int(np.count_nonzero(~covered_pos)) + fp_units
    selected_keys = {col.cols for col in selected_cols}
    human_keys = {col.cols for col in pool.columns if col.is_human}
    unselected = len(human_keys - selected_keys)
    report.hamming = hamming
    report.unselected_human_count = unselected
    if params.mode == MODE_SOFT:
        report.objective = hamming + params.human_weight * dataset.n * unselected
    else:
        report.objective = float(hamming)
    report.template_penalty = (
        params.template_weight * sum(col.distance for col in selected_cols)
        if params.mode == MODE_TEMPLATES
        else 0.0
    )

    consistency = report.mip_objective - (
        hamming
        + (params.human_weight * dataset.n * unselected
           if params.mode == MODE_SOFT else 0.0)
        + report.template_penalty
    )
    if abs(consistency) > 1e-6 * max(1.0, abs(report.mip_objective)):
        raise TrainingError(
            f"objective accounting drifted by {consistency:.3e}; "
            "solver value disagrees with direct evaluation"
        )

    for col in pool.columns:
        if col.is_human:
            report.human_selected[col.conjunction.render()] = col.cols in selected_keys

    covered_neg = np.zeros(dataset.Z.size, dtype=bool)
    for col in selected_cols:
        cover = np.ones(dataset.Z.size, dtype=bool)
        for j in col.cols:
            cover &= dataset.matrix[dataset.Z, j]
        covered_neg |= cover
    n_correct = int(covered_pos.sum()) + int(np.count_nonzero(~covered_neg))
    report.train_accuracy = n_correct / dataset.n
    report.train_seconds = time.perf_counter() - t0
    return rule_set, report
