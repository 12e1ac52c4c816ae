"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against first principles (filters,
exhaustive enumeration, permutations) and never calls the code paths it is
used to check.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def _wins(board, player):
    return any(all(board[i] == player for i in line) for line in _LINES)


def tictactoe_final_boards():
    """All legal end-of-game boards, derived by filtering the full 3^9 grid.

    A board is a legal final position iff the move counts alternate from an
    x-first game, at most one side has a line, a winner's final move is the
    one that completed their line(s), and a drawn board is full.
    """
    finals = []
    for board in product("xob", repeat=9):
        nx = board.count("x")
        no = board.count("o")
        if nx not in (no, no + 1):
            continue
        xw, ow = _wins(board, "x"), _wins(board, "o")
        if xw and ow:
            continue
        if xw:
            if nx != no + 1:
                continue
            # some x cell, when removed, leaves no winner: the winning move
            ok = False
            for i in range(9):
                if board[i] == "x":
                    prev = board[:i] + ("b",) + board[i + 1:]
                    if not _wins(prev, "x"):
                        ok = True
                        break
            if not ok:
                continue
        elif ow:
            if nx != no:
                continue
            ok = False
            for i in range(9):
                if board[i] == "o":
                    prev = board[:i] + ("b",) + board[i + 1:]
                    if not _wins(prev, "o"):
                        ok = True
                        break
            if not ok:
                continue
        else:
            if "b" in board:
                continue
        finals.append(board)
    return finals


def enumerate_conjunctions(n_columns, max_degree):
    """All non-empty column subsets of size <= max_degree."""
    out = []
    for d in range(1, max_degree + 1):
        out.extend(frozenset(c) for c in combinations(range(n_columns), d))
    return out


def cell_condition(meta, cell):
    """Whether one raw cell meets a column condition, cell by cell.

    ``==``/``!=`` compare the cell's text with the value's text, so ``1``,
    ``1.0`` and ``True`` are three different categories; ``<=``/``>`` read the
    cell as a real number.
    """
    if meta.op == "==":
        return str(cell) == str(meta.value)
    if meta.op == "!=":
        return str(cell) != str(meta.value)
    if meta.op == "<=":
        return float(cell) <= meta.value
    if meta.op == ">":
        return float(cell) > meta.value
    raise ValueError(f"unknown operator {meta.op!r}")


def conjunction_cover(matrix, cols):
    """Bool vector: rows where every column in ``cols`` is 1."""
    cov = np.ones(matrix.shape[0], dtype=bool)
    for j in cols:
        cov &= matrix[:, j]
    return cov


def brute_force_reduced_costs(matrix, labels, mu_full, lam, max_degree):
    """Reduced cost of every degree-bounded conjunction, by direct evaluation.

    ``mu_full`` is indexed by sample (zero on negatives).  Returns a dict
    frozenset(cols) -> reduced cost.
    """
    neg = ~labels
    out = {}
    for cols in enumerate_conjunctions(matrix.shape[1], max_degree):
        cov = conjunction_cover(matrix, cols)
        fp = int(np.count_nonzero(cov & neg))
        mu_sum = float(mu_full[cov & labels].sum())
        out[cols] = fp - mu_sum + lam * len(cols)
    return out


def beam_search(matrix, labels, mu_full, lam, max_degree, width, tolerance, exclude=()):
    """The level-by-level beam search of Dash, Gunluk & Wei, by direct
    evaluation, with no limit on the hits kept.

    A level is a list of column tuples; the root level holds the empty one.
    Each child adds a column after its node's last.  A child is a hit when
    its reduced cost is below ``-tolerance`` and it is not in ``exclude``.
    It may be descended when it is not on the last column, it is below
    ``max_degree``, and its descent bound ``lam * (degree + 1) - mu_mass``
    is below ``-tolerance``.  Of those, the ``width`` with the lowest
    reduced cost, ties by column tuple, form the next level.  Returns the
    hits as a dict frozenset(cols) -> reduced cost, the number of nodes
    whose children were evaluated, and whether a level dropped a child.
    """
    n_columns = matrix.shape[1]
    depth = min(max_degree, n_columns)
    neg = ~labels
    level = [()]
    hits, nodes, dropped = {}, 0, False
    for degree in range(1, depth + 1):
        nodes += len(level)
        ranked = []
        for node in level:
            for j in range(node[-1] + 1 if node else 0, n_columns):
                child = node + (j,)
                cov = conjunction_cover(matrix, child)
                mu_mass = float(mu_full[cov & labels].sum())
                rc = int(np.count_nonzero(cov & neg)) - mu_mass + lam * degree
                if rc < -tolerance and frozenset(child) not in exclude:
                    hits[frozenset(child)] = rc
                descend = lam * (degree + 1) - mu_mass < -tolerance
                if degree < depth and j < n_columns - 1 and descend:
                    ranked.append((rc, child))
        ranked.sort()
        dropped |= len(ranked) > width
        level = sorted(child for _, child in ranked[:width])
        if not level:
            break
    return hits, nodes, dropped


def overlap_template_distance(literal_keys, template_key_sets):
    """Distance to the nearest template, from literal-key overlap alone.

    A literal key is a ``(feature, op, value)`` triple.  Against one
    template the distance is one minus the share of the template's keys
    that the conjunction holds; the result is the minimum over templates.
    Contradictory literal sets get a distance like any other.
    """
    held = set(literal_keys)
    return min(1.0 - len(held & set(t)) / len(t) for t in template_key_sets)


def brute_force_best_rule_set(matrix, labels, budget, max_degree):
    """Minimum Hamming loss over every rule set with total degree <= budget.

    Loss of a rule set S: uncovered positives plus, per negative, the number
    of members covering it (which sums the members' false-positive counts).
    """
    n = matrix.shape[0]
    pos_mask = 0
    for i in range(n):
        if labels[i]:
            pos_mask |= 1 << i
    n_pos = bin(pos_mask).count("1")

    conjs = []
    for cols in enumerate_conjunctions(matrix.shape[1], max_degree):
        if len(cols) > budget:
            continue
        cov = conjunction_cover(matrix, cols)
        bits = 0
        for i in np.flatnonzero(cov):
            bits |= 1 << int(i)
        fp = bin(bits & ~pos_mask & ((1 << n) - 1)).count("1")
        conjs.append((len(cols), bits & pos_mask, fp))

    best = n_pos  # empty rule set: every positive is a false negative

    def walk(start, degree_used, cover_bits, fp_sum):
        nonlocal best
        loss = fp_sum + n_pos - bin(cover_bits).count("1")
        if loss < best:
            best = loss
        for idx in range(start, len(conjs)):
            d, pk, fp = conjs[idx]
            if degree_used + d > budget:
                continue
            if fp_sum + fp >= best:  # loss >= sum of member fp counts
                continue
            walk(idx + 1, degree_used + d, cover_bits | pk, fp_sum + fp)

    walk(0, 0, 0, 0)
    return best


def brute_force_matching_score(sim_matrix):
    """Best total over one-to-one pairings, by trying every permutation."""
    a, b = sim_matrix.shape
    if a == 0 or b == 0:
        return 0.0
    best = 0.0
    if a <= b:
        for perm in permutations(range(b), a):
            best = max(best, sum(sim_matrix[i, j] for i, j in enumerate(perm)))
    else:
        for perm in permutations(range(a), b):
            best = max(best, sum(sim_matrix[i, j] for j, i in enumerate(perm)))
    return best


def lp_vertex_minimum(objective, rows, senses, rhs, lower, upper, feas_tol=1e-7):
    """LP oracle by basic-solution enumeration, for boxed LPs only.

    Returns ("optimal", value) or ("infeasible", None).  Every variable must
    have finite bounds so the feasible set is a polytope; nonempty polytopes
    then contain a vertex, which this enumerates directly.
    """
    objective = np.asarray(objective, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(len(senses), -1)
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = objective.size
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("oracle requires finite boxes")

    planes = [(rows[i], rhs[i]) for i in range(len(senses))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lower[j]))
        planes.append((e.copy(), upper[j]))

    def feasible(x):
        if np.any(x < lower - feas_tol) or np.any(x > upper + feas_tol):
            return False
        for a, s, b in zip(rows, senses, rhs):
            v = float(a @ x)
            if s == ">=" and v < b - feas_tol:
                return False
            if s == "<=" and v > b + feas_tol:
                return False
        return True

    best = None
    for combo in combinations(range(len(planes)), n):
        A = np.stack([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x):
            val = float(objective @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best
