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
budget).  Pricing searches literal sets up to a degree cap for the
``COLUMNS_PER_ROUND`` most negative of them.  It evaluates the children of
a whole block of search nodes with two matrix products (mu mass and false
positives) and prunes with an admissible bound (the false-positive term is
nonnegative, the mu term only shrinks as literals are added, and the
degree term grows): a node is descended only while its bound is negative
and no worse than the running ``COLUMNS_PER_ROUND``-th best reduced cost.
The products read only what the answer depends on: the positive rows that
carry dual weight (mu > 0), and for each block only the columns after its
first node's last literal, which hold every fresh child of the block.

The search is depth first, over blocks of at most ``_PRICE_BLOCK`` nodes,
with an optional width: of the children a block may descend, only the
``width`` with the lowest reduced cost are kept.  Each round first searches
with a width of ``BEAM_WIDTH``.  A width of at most ``_PRICE_BLOCK`` keeps
each level in one block, so that pass is the beam search of Dash, Gunluk &
Wei.  When it dropped no child, it has seen every node the search without
a width would, and its list is exact.  When it dropped one and found
nothing, the same round searches again without a width, which skips no
conjunction that could make the cut.  So an empty result always certifies
that no bounded-degree conjunction can improve the relaxation, and only
the rounds that add columns may add heuristic ones.

A training keeps the restricted LP as one live HiGHS model: each round
appends the new columns and re-solves from the last basis.  The loop ends
with one binary solve restricted to the generated pool, by branch and bound
on that same model that branches on the rules before any slack.

The restricted problem is a :class:`ColumnPool`: the dataset, the
templates' literal sets, the pool columns and their codes.
:func:`build_master` and :func:`price` read everything from it, so a master
and its pricing cannot disagree on the data, the templates or the pool.
Inside the loop a conjunction is a set of column indices and nothing more;
``train`` builds a :class:`~corules.ruledsl.Conjunction` of the columns'
literals only for the rules it returns and the human rules it reports on.

Expert knowledge enters three ways, chosen by ``Params.mode``:

* ``soft``: each provided rule left out of the model adds a penalty of
  ``human_weight * n``, so the optimizer pays a data-scaled price for
  overriding the expert.
* ``hard``: provided rules are forced into the model by fixing their
  selection variables at one (infeasible budgets are reported as such).
* ``templates``: partial templates, a :class:`~corules.ruledsl.RuleSet`
  written in the rule syntax, act as attractors; every candidate pays
  ``template_weight`` times its distance to the nearest template
  (:func:`corules.metrics.template_distance`), which compares the
  candidate's column literals with each template's literals as
  conditions.  The templates also seed the pool, at distance zero.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .dataset import BinaryDataset, cover
from . import metrics
from .metrics import template_distance
from .ruledsl import BoundRuleSet, Conjunction, RuleSet, bind
from . import solver
from .solver import CompressedColumns, LiveLp, solve_binary_mip, solve_lp

MODE_MACHINE = "machine"
MODE_SOFT = "soft"
MODE_HARD = "hard"
MODE_TEMPLATES = "templates"
MODES = (MODE_MACHINE, MODE_SOFT, MODE_HARD, MODE_TEMPLATES)

STOP_NO_IMPROVING_COLUMN = "no-improving-column"
STOP_ROUND_LIMIT = "round-limit"
STOP_LP_STATUS = "lp-status:"  # followed by the status the LP ended with

COLUMNS_PER_ROUND = 20  # most columns one pricing round adds
# the width of each round's first pricing search, the children it keeps a
# level; at least the 54 tic-tac-toe columns, so that a degree-2 search
# there drops none
BEAM_WIDTH = 64
TOLERANCE = 1e-6  # a reduced cost must be below -TOLERANCE to improve

log = logging.getLogger("corules")


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
    mip_node_limit: int = 200_000

    def __post_init__(self):
        for name in ("complexity_budget", "max_degree", "max_cg_rounds", "mip_node_limit"):
            # a float here fails deep inside train; numpy integers are fine
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.complexity_budget < 1:
            raise ValueError("complexity budget must be >= 1")
        if not 0 <= self.human_weight < math.inf:
            raise ValueError("human_weight must be finite and >= 0")
        if not 0 <= self.template_weight < math.inf:
            raise ValueError("template_weight must be finite and >= 0")
        if self.mip_node_limit < 1:
            raise ValueError("mip_node_limit must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_cg_rounds < 0:
            raise ValueError("max_cg_rounds must be >= 0")


@dataclass(frozen=True)
class HumanInput:
    """Rules or partial templates a person provides, each as a RuleSet.

    ``rules`` serve soft and hard mode, ``templates`` templates mode; both
    are written in the rule syntax and read with
    :func:`~corules.ruledsl.parse_rules`.
    """

    rules: RuleSet | None = None
    templates: RuleSet | None = None


@dataclass
class PoolColumn:
    cols: frozenset[int]
    pos_cover: np.ndarray  # bool over positive samples, in dataset.P order
    fp_count: int
    is_human: bool
    distance: float = 0.0  # to the nearest template, 0 when unused

    @property
    def complexity(self) -> int:
        return len(self.cols)


def _code(cols: Iterable[int], radix: int) -> int:
    """A literal set's columns j + 1 as digits in base ``radix``, the lowest
    column most significant; no digit is 0, so distinct sets get distinct
    codes."""
    code = 0
    for j in sorted(cols):
        code = code * radix + j + 1
    return code


class ColumnPool:
    """The restricted problem that :func:`build_master` and :func:`price`
    read: the dataset, the templates' literal sets and the candidate
    columns, with cached coverage and template distance per column.

    ``codes`` holds each column's :func:`_code` in base ``n_columns + 1``,
    computed once when the column is added, in pool order; :func:`price`
    reads them to leave pool members out.  :meth:`distance` is the one map
    from a column set to its template distance: a column gets it when it is
    added, and pricing charges it to its hits.  A dataset without a positive
    sample has no covering row and raises :class:`NoPositivesError`.
    """

    def __init__(self, dataset: BinaryDataset, templates: RuleSet = RuleSet(())):
        self.dataset = dataset
        self._pos = dataset.P
        self._neg = dataset.Z
        if self._pos.size == 0:
            raise NoPositivesError("training data has no positive samples")
        self._templates = [t.literals for t in templates.conjunctions]
        self.columns: list[PoolColumn] = []
        self.codes: list[int] = []
        self._index: dict[frozenset[int], int] = {}

    def __len__(self):
        return len(self.columns)

    def distance(self, cols: Iterable[int]) -> float:
        """The :func:`corules.metrics.template_distance` of the columns'
        literals to the templates; 0 without templates."""
        if not self._templates:
            return 0.0
        return template_distance({self.dataset.columns[j] for j in cols}, self._templates)

    def add(self, cols: Iterable[int], is_human: bool = False) -> bool:
        key = frozenset(int(j) for j in cols)
        if not key:
            raise ValueError("empty conjunction")
        if key in self._index:
            if is_human:
                self.columns[self._index[key]].is_human = True
            return False
        covered = cover(self.dataset.matrix, tuple(key))
        self._index[key] = len(self.columns)
        self.codes.append(_code(key, self.dataset.n_columns + 1))
        self.columns.append(
            PoolColumn(
                cols=key,
                pos_cover=covered[self._pos],
                fp_count=int(np.count_nonzero(covered[self._neg])),
                is_human=is_human,
                distance=self.distance(key),
            )
        )
        return True


@dataclass
class MasterModel:
    lp: LiveLp  # pool columns first, in pool order, then the xi block
    offset: float  # constant penalty mass excluded from the LP objective
    n_pool: int
    n_pos: int
    pool: ColumnPool


@dataclass
class MasterSolution:
    w: np.ndarray
    mu: np.ndarray  # covering-row duals, clamped nonnegative
    lam: float      # budget dual, nonnegative
    objective: float  # LP value plus the constant offset
    status: str
    iterations: int


def build_master(
    pool: ColumnPool, params: Params, previous: MasterModel | None = None
) -> MasterModel:
    """The restricted covering LP of the pool, as a live model.

    Everything comes from the pool: one covering row per positive sample of
    its dataset, and one ``w_k`` per pool column with the coverage,
    false-positive count and template distance the pool cached.  Objective
    coefficient of ``w_k`` is its false-positive count, minus the
    soft human credit when k is a provided rule, plus the weighted template
    distance in templates mode.  The constant ``human_weight * n * |U|`` is
    tracked as an offset so reported objectives count every unselected rule.
    In hard mode, provided rules get a fixed lower bound of one instead.

    Without ``previous`` a new model starts from the covering rows, the
    budget row and the xi block (an identity).  With it, the master an
    earlier round built on this pool, that master is grown and returned:
    the pool columns added since are appended to its model, which keeps its
    basis for a warm re-solve, and its pool size and offset are updated.
    The earlier columns keep the costs and bounds they were added with.
    """
    n_pos = pool.dataset.P.size
    cu_n = params.human_weight * pool.dataset.n

    n_human = sum(col.is_human for col in pool.columns)
    if params.mode == MODE_HARD:
        forced = sum(col.complexity for col in pool.columns if col.is_human)
        if forced > params.complexity_budget:
            raise BudgetInfeasibleError(
                "human rules exceed complexity budget: "
                f"{forced} > {params.complexity_budget}"
            )

    if previous is None:
        lp = LiveLp(
            row_lower=np.append(np.ones(n_pos), -np.inf),
            row_upper=np.append(np.full(n_pos, np.inf), params.complexity_budget),
            cost=np.ones(n_pos),
            lower=np.zeros(n_pos),
            upper=np.ones(n_pos),  # xi <= 1 is tight anyway
            # the identity over the covering rows
            columns=CompressedColumns(
                np.arange(n_pos + 1), np.arange(n_pos), np.ones(n_pos)
            ),
        )
        master = MasterModel(lp, offset=0.0, n_pool=0, n_pos=n_pos, pool=pool)
    elif previous.pool is not pool:
        raise ValueError("previous master was built on another pool")
    else:
        master = previous
    new = pool.columns[master.n_pool:]
    if new:
        cost = np.array([float(col.fp_count) for col in new])
        if params.mode == MODE_SOFT:
            cost -= cu_n * np.array([col.is_human for col in new])
        if params.mode == MODE_TEMPLATES:
            cost += params.template_weight * np.array([col.distance for col in new])
        lower = np.zeros(len(new))
        if params.mode == MODE_HARD:
            lower[[col.is_human for col in new]] = 1.0
        upper = np.ones(len(new))  # w <= 1 matches binarity
        # each column covers its positives and spends its degree of the budget
        columns = np.column_stack([
            [col.pos_cover for col in new],
            [col.complexity for col in new],
        ])
        master.lp.add_columns(cost, lower, upper, columns.T)

    master.offset = cu_n * n_human if params.mode == MODE_SOFT else 0.0
    master.n_pool = len(pool)
    return master


def solve_master(model: MasterModel) -> MasterSolution:
    sol = solve_lp(model.lp)
    if sol.status != solver.OPTIMAL:
        return MasterSolution(
            np.zeros(model.n_pool), np.zeros(model.n_pos), 0.0,
            float("nan"), sol.status, sol.iterations,
        )
    w = sol.x[: model.n_pool]
    mu = np.maximum(sol.duals[: model.n_pos], 0.0)
    lam = max(0.0, -float(sol.duals[model.n_pos]))
    return MasterSolution(w, mu, lam, sol.objective + model.offset, sol.status, sol.iterations)


@dataclass(frozen=True)
class PricedCandidate:
    cols: frozenset[int]
    reduced_cost: float


class PricedCandidates(list):
    """The candidates :func:`price` returns, most negative first.

    ``nodes`` counts the search nodes whose children the search without a
    width evaluated, the empty root included, and ``capped_nodes`` those of
    the search with a width; a child on the last column has no children and
    is never one.  ``pruned`` counts, over both, the other children that
    passed the ``-TOLERANCE`` descent test but that the running
    ``limit``-th best reduced cost cut.  ``exact`` says the list is the one
    the search without a width returns, up to the summation order of
    reduced costs.
    """

    def __init__(
        self,
        candidates: Iterable[PricedCandidate] = (),
        nodes: int = 0,
        pruned: int = 0,
        capped_nodes: int = 0,
        exact: bool = True,
    ):
        super().__init__(candidates)
        self.nodes = nodes
        self.pruned = pruned
        self.capped_nodes = capped_nodes
        self.exact = exact


# Most search nodes that pricing evaluates with one matrix product.  A
# block's covers are built only when it is taken off the stack, and the
# stack keeps at most one parent block per depth alive, so the covers
# pricing holds stay near max_degree * _PRICE_BLOCK * n bools whatever the
# data size.
_PRICE_BLOCK = 2048


def price(
    duals: tuple[np.ndarray, float],
    pool: ColumnPool,
    params: Params,
    limit: int | None = None,
    width: int | None = None,
) -> PricedCandidates:
    """The ``limit`` most negative reduced-cost conjunctions over the pool's
    dataset that are not in the pool.

    With ``width=None`` the search is exhaustive and the list exact.  With
    a width, the search runs first with that width, and again without one
    only when it found nothing after dropping a child; so an empty return
    always certifies there is nothing to add within the degree cap.

    A search node is a literal set in increasing column order; its
    children, the fresh ones, add one column after its last.  Nodes are
    evaluated in blocks: with the block's covers as bool rows, one product
    with the mu-weighted positive bits gives every child's mu mass and one
    with the negative bits its false positives (exact integers in float64).
    Only positive rows with ``mu > 0`` are read, since the others add
    nothing to any mu mass.  A block is sorted by its nodes' last column,
    so its products cover only the columns after its first node's last,
    which hold every fresh child of the block.  A child is a hit when it is
    fresh, its reduced cost is below ``-TOLERANCE`` and it is not a pool
    member (pool members are still searched through).

    The hits so far are kept in a buffer sorted by reduced cost, ties by
    column tuple, and cut to ``limit``.  Its threshold is its ``limit``-th
    reduced cost once full, and ``-TOLERANCE`` before.  A child may be
    descended only while its best imaginable descendant (zero false
    positives, the same mu mass, one more literal of degree cost) is below
    ``-TOLERANCE`` and at most the threshold plus ``TOLERANCE``; the slack
    keeps rounding from cutting a descendant that ties the threshold and
    would win on column order.  The bound is admissible (false positives
    are nonnegative, the mu mass only shrinks as literals are added and the
    degree term grows), and the threshold only tightens, since every hit in
    the buffer is a real one.

    The search is depth first, over blocks of at most ``_PRICE_BLOCK``
    nodes; a block is tested against the threshold again when it is taken
    off the stack.  Without a width it returns the first ``limit`` of the
    full sorted list, and with ``limit=None`` no threshold applies.  With a
    width, the children of a block that pass the threshold test are cut to
    the ``width`` with the lowest reduced cost, ties by column tuple, before
    they are split into blocks.  A width of at most ``_PRICE_BLOCK`` keeps
    each level in one block, so the search then goes level by level from
    the root: the beam search of Dash, Gunluk & Wei.  When no cut dropped a
    child, it has evaluated every node whose descendants could enter the
    full list, so its list is that list and ``exact`` is set.  Only the
    summation order of the mu mass differs from a one-by-one evaluation (it
    follows the BLAS product over a block's rows and columns), so reduced
    costs agree with it to rounding.

    In templates mode the weighted template distance is computed only for
    a hit whose template-free reduced cost could enter the buffer.  That is
    exact: the distance is nonnegative, so no other node could qualify, and
    the descent bound never uses it.  The distance is the pool's
    :meth:`ColumnPool.distance`, the one a column gets when it joins the
    pool: the hit's column literals against the templates' literals, with
    no conjunction built.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if width is not None and width < 1:
        raise ValueError("width must be >= 1")
    mu, lam = duals
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    lam = max(float(lam), 0.0)
    dataset = pool.dataset
    m = dataset.n_columns
    depth = min(params.max_degree, m)
    if depth == 0:
        return PricedCandidates()
    # a positive row with mu == 0 adds nothing to any mu mass
    weighted = mu > 0.0
    bits_p = dataset.matrix[dataset.P[weighted]]
    bits_z = dataset.matrix[dataset.Z]
    mass = mu[weighted, None] * bits_p
    fp_bits = bits_z.astype(float)
    col_bits_p = np.ascontiguousarray(bits_p.T)
    col_bits_z = np.ascontiguousarray(bits_z.T)

    # A node's code is its _code in base m + 1.  A hit's code in the buffer
    # is padded with zero digits to ``depth`` digits, so that codes order
    # like column tuples.  Codes that outgrow int64 stay exact as Python ints.
    radix = m + 1
    top = radix**depth  # above every code of at most ``depth`` literals
    code_type = np.int64 if top < 2**63 else object
    pad = [radix ** (depth - d) for d in range(depth + 1)]

    def decode(code: int) -> frozenset[int]:
        cols = []
        while code:
            code, digit = divmod(code, radix)
            if digit:
                cols.append(digit - 1)
        return frozenset(cols)

    members = np.sort(np.array([c for c in pool.codes if c < top], dtype=code_type))
    templated = params.mode == MODE_TEMPLATES and params.template_weight > 0.0

    # the buffer, in pieces: with a limit, merged and cut to the best
    # ``limit`` whenever it holds that many, and its last becomes the threshold
    best_rc = [np.empty(0)]
    best_code = [np.empty(0, dtype=code_type)]
    held = 0
    threshold = -TOLERANCE
    nodes = pruned = 0

    def admit(rc, codes, degree):
        nonlocal held, threshold
        if members.size:
            at = np.searchsorted(members, codes)
            keep = members[np.minimum(at, members.size - 1)] != codes
            rc, codes = rc[keep], codes[keep]
        if templated:
            distance = np.array([pool.distance(decode(code)) for code in codes.tolist()])
            rc = rc + params.template_weight * distance
            keep = (rc < -TOLERANCE) & (rc <= threshold)
            rc, codes = rc[keep], codes[keep]
        if not rc.size:
            return
        best_rc.append(rc)
        best_code.append(codes * pad[degree])
        held += rc.size
        if limit is not None and held >= limit:
            rc, codes = np.concatenate(best_rc), np.concatenate(best_code)
            order = np.lexsort((codes, rc))[:limit]
            best_rc[:], best_code[:] = [rc[order]], [codes[order]]
            held = limit
            threshold = best_rc[0][-1]

    def score(degree, codes, cov_p, cov_z, last):
        """Evaluate the fresh children, at ``degree``, of the nodes with
        these codes, covers and last columns (sorted), and admit the hits.
        Below ``depth``, return the children that may be descended, in
        column order: their nodes' rows, their columns, bounds and reduced
        costs."""
        nonlocal nodes
        nodes += codes.size
        # ``last`` is sorted, so every fresh child lies in the columns after
        # the first node's last
        lo = int(last[0]) + 1
        mu_sum = cov_p @ mass[:, lo:]
        rc = cov_z @ fp_bits[:, lo:]
        rc -= mu_sum
        rc += lam * degree
        # the threshold is at most -TOLERANCE, so these hold every hit;
        # freshness and the tolerance are checked on them alone
        rows, js = np.nonzero(rc <= threshold)
        if rows.size:
            hit = rc[rows, js]
            js += lo
            keep = (hit < -TOLERANCE) & (js > last[rows])
            rows, js = rows[keep], js[keep]
            admit(hit[keep], codes[rows] * radix + js + 1, degree)
        if degree == depth:
            return None
        bound = np.subtract(lam * (degree + 1), mu_sum, out=mu_sum)
        # a child on the last column has no children of its own
        descend = (bound[:, :-1] < -TOLERANCE) & (np.arange(lo, m - 1) > last[:, None])
        # transposed, so the children come out in column order
        js, rows = np.nonzero(descend.T)
        return rows, js + lo, bound[rows, js], rc[rows, js]

    def children(codes, cov_p, cov_z, rows, js):
        """Codes, covers and last columns of the nodes' children ``js``."""
        return (
            codes[rows] * radix + js + 1,
            cov_p[rows] & col_bits_p[js],
            cov_z[rows] & col_bits_z[js],
            js,
        )

    root = (
        np.zeros(1, dtype=code_type),
        np.ones((1, bits_p.shape[0]), dtype=bool),
        np.ones((1, bits_z.shape[0]), dtype=bool),
        np.array([-1]),
    )

    def search(width=None) -> bool:
        """Depth first over blocks of at most ``_PRICE_BLOCK`` nodes, each
        block's children cut to the ``width`` best when set; whether a cut
        dropped a child that could be descended."""
        nonlocal pruned
        dropped = False
        # an entry is a block not yet built: its parents' codes and covers,
        # the rows of those parents, the column each child adds and the
        # child's descent bound
        stack = []

        def expand(degree, codes, cov_p, cov_z, last):
            nonlocal pruned, dropped
            found = score(degree, codes, cov_p, cov_z, last)
            if found is None:
                return
            rows, js, bound, rc = found
            if width is not None:
                keep = bound <= threshold + TOLERANCE
                pruned += rows.size - int(np.count_nonzero(keep))
                rows, js, bound, rc = rows[keep], js[keep], bound[keep], rc[keep]
                if rows.size > width:
                    dropped = True
                    # the best ``width``, put back in column order for ``score``
                    best = np.sort(np.lexsort((codes[rows] * radix + js + 1, rc))[:width])
                    rows, js, bound = rows[best], js[best], bound[best]
            for s in range(0, rows.size, _PRICE_BLOCK):
                part = slice(s, s + _PRICE_BLOCK)
                stack.append((
                    degree + 1, (codes, cov_p, cov_z), rows[part], js[part], bound[part]
                ))

        expand(1, *root)
        while stack:
            degree, parents, rows, js, bound = stack.pop()
            keep = bound <= threshold + TOLERANCE
            pruned += rows.size - int(np.count_nonzero(keep))
            if keep.any():
                expand(degree, *children(*parents, rows[keep], js[keep]))
        return dropped

    exact = not search(width)
    capped_nodes = 0 if width is None else nodes
    if not exact and not held:
        # nothing found, but a dropped child may lead to a hit
        exact = not search()

    rc, codes = np.concatenate(best_rc), np.concatenate(best_code)
    order = np.lexsort((codes, rc))[:limit]
    return PricedCandidates(
        (PricedCandidate(decode(int(codes[i])), float(rc[i])) for i in order),
        nodes=nodes - capped_nodes,
        pruned=pruned,
        capped_nodes=capped_nodes,
        exact=exact,
    )


@dataclass
class TrainReport:
    """Everything observable about one training run."""

    mode: str
    n_samples: int
    params: Params
    rounds: list[dict] = field(default_factory=list)
    mip_status: str = ""
    mip_nodes: int = 0
    mip_objective: float = float("nan")
    mip_relaxation: float = float("nan")  # root LP bound, offset included
    mip_seconds: float = 0.0
    objective: float = float("nan")  # hamming + human_weight * n * unselected
    hamming: int = 0
    template_penalty: float = 0.0
    human_selected: dict[str, bool] = field(default_factory=dict)
    unselected_human_count: int = 0
    stop_reason: str = ""  # why column generation ended: a STOP_* value
    warnings: list[str] = field(default_factory=list)
    train_accuracy: float = float("nan")
    train_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def train(
    dataset: BinaryDataset,
    human: HumanInput | None = None,
    params: Params = Params(),
) -> tuple[RuleSet, TrainReport]:
    """Run the full column-generation loop and return the selected rule set.

    Seeds the pool with every provided rule or template plus all degree-1
    conjunctions, alternates restricted LP solves with pricing (of width
    ``BEAM_WIDTH``, and exhaustive when that finds nothing) until
    no improving conjunction exists (or the round limit trips, or the LP
    ends other than optimal, each with a warning), then solves the
    pool-restricted binary problem.  ``TrainReport.stop_reason`` says which
    ended the loop, and each round is logged at DEBUG level on the
    ``corules`` logger.  The reported objective is recomputed from the
    returned rule set through :mod:`corules.metrics`: Hamming loss plus
    ``human_weight * n`` per unselected human rule.  Human input the mode
    does not use, or templates mode without templates, raises
    :class:`TrainingError`.
    """
    t0 = time.perf_counter()
    report = TrainReport(mode=params.mode, n_samples=dataset.n, params=params)

    human = human or HumanInput()
    rules = human.rules or RuleSet(())
    templates = human.templates or RuleSet(())
    if rules and params.mode not in (MODE_SOFT, MODE_HARD):
        raise TrainingError(
            f"{params.mode} mode ignores human rules; use soft or hard mode"
        )
    if templates and params.mode != MODE_TEMPLATES:
        raise TrainingError(f"{params.mode} mode ignores templates; use templates mode")
    if params.mode == MODE_TEMPLATES and not templates:
        raise TrainingError("templates mode requires a non-empty template set")

    # the input the mode uses seeds the pool: rules as human rules, templates
    # as conjunctions at distance zero; binding first synthesizes the columns
    # either needs before seeding
    given = rules or templates
    seeds: tuple[frozenset[int], ...] = ()
    if given:
        bound, dataset = bind(given, dataset)
        seeds = bound.column_sets

    pool = ColumnPool(dataset, templates)
    for cols in seeds:
        pool.add(cols, is_human=bool(rules))
    for j in range(dataset.n_columns):
        pool.add((j,))

    master = None
    for round_no in range(params.max_cg_rounds):
        master = build_master(pool, params, master)
        t_lp = time.perf_counter()
        msol = solve_master(master)
        lp_seconds = time.perf_counter() - t_lp
        if msol.status != solver.OPTIMAL:
            report.warnings.append(
                f"restricted LP stopped with status {msol.status}; "
                "proceeding to the binary solve"
            )
            report.stop_reason = STOP_LP_STATUS + msol.status
            break
        t_price = time.perf_counter()
        candidates = price(
            (msol.mu, msol.lam), pool, params, limit=COLUMNS_PER_ROUND, width=BEAM_WIDTH
        )
        row = {
            "round": round_no,
            "lp_objective": msol.objective,
            "pool_size": len(pool),
            "columns_added": len(candidates),
            "min_reduced_cost": candidates[0].reduced_cost if candidates else 0.0,
            "lp_seconds": lp_seconds,
            "lp_iterations": msol.iterations,
            "price_seconds": time.perf_counter() - t_price,
            "price_exact": candidates.exact,
            "price_capped_nodes": candidates.capped_nodes,
            "price_exact_nodes": candidates.nodes,
            "price_pruned": candidates.pruned,
        }
        report.rounds.append(row)
        log.debug(
            "round %d: lp %.9g in %d iterations, price_exact %s, price_capped_nodes %d, "
            "price_exact_nodes %d, price_pruned %d, %d columns added, "
            "best reduced cost %.9g",
            round_no, row["lp_objective"], row["lp_iterations"], row["price_exact"],
            row["price_capped_nodes"], row["price_exact_nodes"], row["price_pruned"],
            row["columns_added"], row["min_reduced_cost"],
        )
        if not candidates:
            report.stop_reason = STOP_NO_IMPROVING_COLUMN
            break
        for cand in candidates:
            pool.add(cand.cols)
    else:
        report.warnings.append("column generation stopped at the round limit")
        report.stop_reason = STOP_ROUND_LIMIT

    master = build_master(pool, params, master)
    # only the rules are decisions: each xi is the unit-cost slack of one
    # covering row, integral once w is, so branch and bound branches on the
    # number of rules, then on the pool; every variable stays binary and
    # integral objectives' bounds are rounded up
    t_mip = time.perf_counter()
    mip = solve_binary_mip(
        master.lp, node_limit=params.mip_node_limit, branch_first=master.n_pool
    )
    report.mip_seconds = time.perf_counter() - t_mip
    report.mip_status = mip.status
    report.mip_nodes = mip.nodes
    if mip.relaxation_objective is not None:
        report.mip_relaxation = mip.relaxation_objective + master.offset
    if mip.x is None:
        raise TrainingError(
            f"final binary master ended with status {mip.status} and no incumbent"
        )
    if mip.status == solver.ITERATION_LIMIT:
        report.warnings.append(
            "branch and bound hit the node budget; keeping the best incumbent"
        )
    report.mip_objective = float(mip.objective + master.offset)

    selected = [
        (Conjunction(frozenset(dataset.columns[j] for j in col.cols)), col)
        for k, col in enumerate(pool.columns) if mip.x[k] > 0.5
    ]
    selected.sort(key=lambda pair: sorted(lit.sort_key() for lit in pair[0].literals))
    rule_set = RuleSet(tuple(conj for conj, _ in selected))

    # Eq-style accounting, recomputed from the returned rule set
    bound = BoundRuleSet(tuple(col.cols for _, col in selected), dataset.n_columns)
    hamming, report.train_accuracy = metrics.hamming_and_accuracy(bound, dataset)
    selected_keys = {col.cols for _, col in selected}
    human_keys = {col.cols for col in pool.columns if col.is_human}
    unselected = len(human_keys - selected_keys)
    report.hamming = hamming
    report.unselected_human_count = unselected
    penalty = (
        params.human_weight * dataset.n * unselected
        if params.mode == MODE_SOFT else 0.0
    )
    report.objective = hamming + penalty
    report.template_penalty = (
        params.template_weight * sum(col.distance for _, col in selected)
        if params.mode == MODE_TEMPLATES
        else 0.0
    )

    consistency = report.mip_objective - (hamming + penalty + report.template_penalty)
    if abs(consistency) > 1e-6 * max(1.0, abs(report.mip_objective)):
        raise TrainingError(
            f"objective accounting drifted by {consistency:.3e}; "
            "solver value disagrees with direct evaluation"
        )

    report.human_selected = {
        Conjunction(frozenset(dataset.columns[j] for j in col.cols)).render():
            col.cols in selected_keys
        for col in pool.columns if col.is_human
    }

    report.train_seconds = time.perf_counter() - t0
    return rule_set, report
