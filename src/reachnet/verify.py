"""Exact decision procedures for reachability and uniformity.

Reachability runs the frontier closure S <- S | tau(S) over the
sequence.  The frontier is a boolean "reached" array over counter
tuples, and transposition (a b) updates only the tuples that hold a or b;
each step at most doubles the frontier and never shrinks it.  The closure
stops once all n!/(n-t)! injective tuples are reached.  Two layouts hold
the array, and in both its flat order is lexicographic order:

- dense, shape (n,)*t, one cell per tuple of [n]^t, injective or not.
  For each axis i, the image of the slice x_i = a lands in the slice
  x_i = b: it is a copy of the n^(t-1) cells of the a-slice with its a
  and b rows swapped on each of the other t-1 axes.  Likewise from b to a.
- ranked, one cell per injective tuple at its lexicographic
  (falling-factorial, Lehmer) rank.  The reached tuples are also kept as
  small integer columns (int8 up to n = 128) in the order found; a step
  maps only those that hold a or b, and ranks their images, CHUNK_ROWS
  rows at a time.

The dense layout is used when n^t <= 8 n!/(n-t)! and its n^t cells fit
the budget, the ranked layout otherwise.  So the budget counts the cells
allocated, and only n!/(n-t)! > budget raises BudgetExceededError.  A
cell costs 1 byte dense and t+1 bytes ranked (the reached flag and the
row), and the ranked layout adds temporaries that grow with CHUNK_ROWS,
not with the cell count; the budget counts cells, not bytes.  At t = n
the last entry of an injective tuple is the one value the others leave,
so the closure runs at t = n-1, with the same counts and steps.

Uniformity pushes exact Fraction masses through the lazy sequence in the
ranked layout, at the same arity: one mass per injective tuple (a numpy
object array, every zero cell pointing at one shared zero), a table of
every cell's row, and a flag per cell for nonzero mass.  A step (a b p)
pairs each tuple x that holds a or b with tau(x) != x; the pairs are
disjoint, and the other tuples are not touched.  For 0 < p < 1 each pair
that holds mass gets m <- m + p (m o tau - m) on both its cells, p = 1
swaps the two cells and p = 0 is skipped.  A uniformity cell costs an
8-byte object pointer, t bytes of row and the 1-byte flag, plus one
Fraction per nonzero cell, beside reach's 1 and t+1 bytes; its budget
counts cells too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CounterTuple,
    Distribution,
    LazyNetwork,
    Network,
    TupleSet,
    check_arity,
    closure_arity,
)
from .errors import BudgetExceededError

DEFAULT_BUDGET = 1 << 27

MISSING_SAMPLE_CAP = 10

# the dense layout is used while n^t is at most this many times n!/(n-t)!
DENSE_RATIO = 8

# the ranked layout maps its reached rows, and scans for missing ranks, in
# chunks of this many, so its temporaries do not grow with n!/(n-t)!
CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class ReachVerdict:
    """Outcome of a reachability check.

    ok holds exactly when every one of the required n(n-1)...(n-t+1)
    ordered tuples is reachable; otherwise missing_sample lists up to 10
    lexicographically smallest unreached tuples.  steps_used reports how
    many transpositions were processed before completeness (early exit).
    """

    ok: bool
    reached: int
    required: int
    missing_sample: tuple[CounterTuple, ...]
    steps_used: int

    def render(self) -> str:
        if self.ok:
            return f"OK reached={self.reached} required={self.required}"
        lines = [f"FAIL reached={self.reached} required={self.required}"]
        lines += ["missing " + " ".join(map(str, x)) for x in self.missing_sample]
        return "\n".join(lines)


@dataclass(frozen=True)
class UniformityVerdict:
    """Outcome of an exact uniformity check.

    expected_mass is (n-t)!/n!; deviations lists every tuple whose mass
    differs (including unreachable tuples, at mass 0), sorted.
    """

    ok: bool
    required: int
    expected_mass: Fraction
    deviations: tuple[tuple[CounterTuple, Fraction], ...]

    def render(self) -> str:
        mass = f"{self.expected_mass.numerator}/{self.expected_mass.denominator}"
        if self.ok:
            return f"OK tuples={self.required} mass={mass}"
        lines = [f"FAIL deviations={len(self.deviations)} expected={mass}"]
        for x, m in self.deviations[:MISSING_SAMPLE_CAP]:
            lines.append(f"tuple {' '.join(map(str, x))} mass {m.numerator}/{m.denominator}")
        if len(self.deviations) > MISSING_SAMPLE_CAP:
            lines.append(f"... {len(self.deviations) - MISSING_SAMPLE_CAP} more")
        return "\n".join(lines)


def _required_tuples(n: int, t: int, budget: int) -> int:
    check_arity(n, t)
    required = math.perm(n, t)
    if required > budget:
        raise BudgetExceededError(
            f"{required} tuples exceed the state budget {budget} (n={n}, t={t})"
        )
    return required


def _dense_closure(net: Network, t: int) -> tuple[np.ndarray, int, int]:
    """Closure over the (n,)*t array; return (reached, count, steps processed)."""
    n = net.n
    required = math.perm(n, t)
    reached = np.zeros((n,) * t, dtype=bool)
    reached[tuple(range(t))] = True
    count, steps = 1, 0
    for tau in net.seq:
        if count == required:
            break
        steps += 1
        a, b = tau.a - 1, tau.b - 1
        # An image read after earlier ORs of this step can only add
        # tau(tau(x)) = x for an x already reached, so reading and writing
        # the same array still gives exactly S | tau(S).
        for i in range(t):
            for src, dst in ((a, b), (b, a)):
                image = reached[(slice(None),) * i + (slice(src, src + 1),)].copy()
                for j in range(t):
                    if j != i:  # swap a and b on the other axes
                        at_a, at_b = (slice(None),) * j + (a,), (slice(None),) * j + (b,)
                        held = image[at_a].copy()
                        image[at_a] = image[at_b]
                        image[at_b] = held
                view = reached[(slice(None),) * i + (slice(dst, dst + 1),)]
                count += int(np.count_nonzero(image & ~view))
                view |= image
    return reached, count, steps


def _lehmer_rank(x: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank among injective tuples of the columns of x (0-based)."""
    t = len(x)
    rank = np.zeros(x.shape[1], dtype=np.int64)
    for i in range(t):
        digit = x[i].copy()
        for j in range(i):
            digit -= x[j] < x[i]
        rank += digit.astype(np.int64) * math.perm(n - 1 - i, t - 1 - i)
    return rank


def _lehmer_unrank(rank: np.ndarray, n: int, t: int) -> np.ndarray:
    """Inverse of _lehmer_rank: one 0-based injective tuple per row."""
    x = np.empty((len(rank), t), dtype=np.int64)
    for i in range(t):
        x[:, i], rank = np.divmod(rank, math.perm(n - 1 - i, t - 1 - i))
    # digit i counts the values below x_i that x_0..x_{i-1} leave free
    for i in range(t - 2, -1, -1):
        x[:, i + 1 :] += x[:, i + 1 :] >= x[:, i : i + 1]
    return x


def _swap_touched(
    held: np.ndarray, a: np.integer, b: np.integer, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of `held` that hold a or b, their images under a <-> b,
    and the Lehmer ranks of those images."""
    cols = np.flatnonzero(((held == a) | (held == b)).any(axis=0))
    image = held.take(cols, axis=1)
    image ^= ((image == a) | (image == b)) * (a ^ b)
    return cols, image, _lehmer_rank(image, n)


def _ranked_closure(net: Network, t: int) -> tuple[np.ndarray, int, int]:
    """Closure over injective tuples by Lehmer rank; return (reached, count, steps)."""
    n = net.n
    required = math.perm(n, t)
    reached = np.zeros(required, dtype=bool)
    reached[0] = True  # rank of (1, ..., t)
    # the reached tuples in the order found, as the smallest signed columns
    rows = np.empty((t, required), dtype=np.min_scalar_type(-n))
    rows[:, 0] = np.arange(t)
    count, steps = 1, 0
    for tau in net.seq:
        if count == required:
            break
        steps += 1
        a, b = rows.dtype.type(tau.a - 1), rows.dtype.type(tau.b - 1)
        # tau is a bijection, so no two rows share an image: each chunk
        # adds its new images before the next chunk reads `reached`, and
        # the rows appended here are not read again in this step
        end = count
        for lo in range(0, end, CHUNK_ROWS):
            _, image, rank = _swap_touched(rows[:, lo : min(lo + CHUNK_ROWS, end)], a, b, n)
            new = ~reached[rank]
            k = int(np.count_nonzero(new))
            reached[rank[new]] = True
            rows[:, count : count + k] = image[:, new]
            count += k
    return reached, count, steps


def _closure(net: Network, t: int, budget: int) -> tuple[np.ndarray, int, int]:
    """Run the closure in the layout the ratio rule picks."""
    required = _required_tuples(net.n, t, budget)
    arity = closure_arity(net.n, t)
    cells = net.n**arity
    dense = cells <= DENSE_RATIO * required and cells <= budget
    return (_dense_closure if dense else _ranked_closure)(net, arity)


def _dense_missing(reached: np.ndarray) -> np.ndarray:
    """The first MISSING_SAMPLE_CAP unreached injective tuples of a dense array."""
    found: list[np.ndarray] = []
    for head in range(reached.shape[0]):
        rest = np.argwhere(~reached[head])
        cells = np.column_stack([np.full(len(rest), head), rest])
        cells = cells[(np.diff(np.sort(cells, axis=1), axis=1) != 0).all(axis=1)]
        found += list(cells[: MISSING_SAMPLE_CAP - len(found)])
        if len(found) == MISSING_SAMPLE_CAP:
            break
    return np.array(found, dtype=np.int64).reshape(-1, reached.ndim)


def _ranked_missing(reached: np.ndarray) -> np.ndarray:
    """The first MISSING_SAMPLE_CAP unreached ranks, scanned CHUNK_ROWS at a time."""
    found: list[np.ndarray] = []
    left = MISSING_SAMPLE_CAP
    for lo in range(0, len(reached), CHUNK_ROWS):
        found.append(np.flatnonzero(~reached[lo : lo + CHUNK_ROWS])[:left] + lo)
        left -= len(found[-1])
        if not left:
            break
    return np.concatenate(found)


def _tuples(reached: np.ndarray, n: int, t: int, missing: bool = False) -> np.ndarray:
    """Reached tuples, or the first MISSING_SAMPLE_CAP missing ones, in lex order.

    `reached` comes from a layout function at arity `t`; rows are 0-based.
    A one-dimensional array is indexed by rank (dense t = 1 is too).
    """
    if reached.ndim == 1:
        ranks = _ranked_missing(reached) if missing else np.flatnonzero(reached)
        return _lehmer_unrank(ranks, n, t)
    if missing:
        return _dense_missing(reached)
    return np.argwhere(reached)


def _as_counter_tuples(x: np.ndarray, n: int, t: int) -> list[CounterTuple]:
    """1-based tuples of arity t from closure rows, completing t = n rows."""
    if x.shape[1] < t:
        x = np.column_stack([x, n * (n - 1) // 2 - x.sum(axis=1)])
    return [tuple(row) for row in (x + 1).tolist()]


def reach_set(net: Network, t: int, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """Exactly the tuples reachable from (1,...,t) by some subsequence."""
    reached, _, _ = _closure(net, t, budget)
    arity = closure_arity(net.n, t)
    return set(_as_counter_tuples(_tuples(reached, net.n, arity), net.n, t))


def verify_reachability(net: Network, t: int, budget: int = DEFAULT_BUDGET) -> ReachVerdict:
    """Decide t-reachability; a complete frontier ends the closure early."""
    reached, count, steps = _closure(net, t, budget)
    required = math.perm(net.n, t)
    ok = count == required
    missing: tuple[CounterTuple, ...] = ()
    if not ok:
        arity = closure_arity(net.n, t)
        rows = _tuples(reached, net.n, arity, missing=True)
        missing = tuple(_as_counter_tuples(rows, net.n, t))
    return ReachVerdict(ok, count, required, missing, steps)


def _injective_rows(n: int, t: int) -> np.ndarray:
    """Every injective tuple as small signed columns, in rank order."""
    cells = math.perm(n, t)
    rows = np.empty((t, cells), dtype=np.min_scalar_type(-n))
    for lo in range(0, cells, CHUNK_ROWS):
        rows[:, lo : lo + CHUNK_ROWS] = _lehmer_unrank(
            np.arange(lo, min(lo + CHUNK_ROWS, cells)), n, t
        ).T
    return rows


def _push_forward(
    net: LazyNetwork, t: int, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass of every injective tuple by Lehmer rank; return (mass, live, rows).

    live marks the cells of nonzero mass and rows holds each cell's tuple
    (0-based, at the closure arity).
    """
    _required_tuples(net.n, t, budget)
    n = net.n
    rows = _injective_rows(n, closure_arity(n, t))
    cells = rows.shape[1]
    mass = np.full(cells, Fraction(0), dtype=object)
    mass[0] = Fraction(1)  # rank of (1, ..., t)
    live = np.zeros(cells, dtype=bool)
    live[0] = True
    for tau in net.seq:
        p = tau.p
        if p == 0:
            continue
        a, b = rows.dtype.type(tau.a - 1), rows.dtype.type(tau.b - 1)
        for lo in range(0, cells, CHUNK_ROWS):
            cols, _, rank = _swap_touched(rows[:, lo : lo + CHUNK_ROWS], a, b, n)
            x = cols + lo
            # every touched x pairs with tau(x) != x, and the pairs are
            # disjoint: update each pair once, from its lower rank, and only
            # if it holds mass (masses are never negative, so 0 < p < 1
            # leaves a pair with mass nonzero on both cells)
            pair = (x < rank) & (live[x] | live[rank])
            x, y = x[pair], rank[pair]
            if p == 1:
                mass[x], mass[y] = mass[y], mass[x]
                live[x], live[y] = live[y], live[x]
            else:  # m <- m + p (m o tau - m), on both cells of the pair
                flow = (mass[y] - mass[x]) * p
                mass[x] += flow
                mass[y] -= flow
                live[x] = live[y] = True
    return mass, live, rows


def _cell_tuples(rows: np.ndarray, cells: np.ndarray, n: int, t: int) -> list[CounterTuple]:
    """1-based tuples of arity t of the given cells of a rows table."""
    return _as_counter_tuples(rows[:, cells].T.astype(np.int64), n, t)


def tuple_distribution(net: LazyNetwork, t: int, budget: int = DEFAULT_BUDGET) -> Distribution:
    """Exact push-forward of the start tuple through the lazy sequence.

    Masses are Fractions and sum to exactly 1 after every prefix; tuples
    with zero mass are never stored.
    """
    mass, live, rows = _push_forward(net, t, budget)
    cells = np.flatnonzero(live)
    return dict(zip(_cell_tuples(rows, cells, net.n, t), mass[cells].tolist()))


def verify_uniformity(
    net: LazyNetwork, t: int, budget: int = DEFAULT_BUDGET
) -> UniformityVerdict:
    """Decide whether every ordered tuple carries mass exactly (n-t)!/n!."""
    required = _required_tuples(net.n, t, budget)
    expected = Fraction(1, required)
    mass, live, rows = _push_forward(net, t, budget)
    # every injective tuple has a cell, in lexicographic order, and the
    # cells off the support deviate at mass 0
    off = ~live
    off[live] = mass[live] != expected
    off = np.flatnonzero(off)
    deviations = tuple(zip(_cell_tuples(rows, off, net.n, t), mass[off].tolist()))
    return UniformityVerdict(not deviations, required, expected, deviations)
