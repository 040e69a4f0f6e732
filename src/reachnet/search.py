"""Exhaustive minimal-length search for t-reachability networks.

Depth-first search over transposition sequences with four fixed
length-preserving pruning rules: (i) a step joining two inactive
positions never changes the frontier, so a shorter network exists;
(ii) inactive positions are interchangeable under relabeling, so the k-th
newly activated position can be forced to carry label t+k; (iii) every
minimal network grows its frontier strictly at each step (a non-growing
step can be dropped without changing later frontiers); (iv) a branch is
cut when doubling the frontier, or activating one position, per
remaining step cannot finish.  A witness found at level L during
iterative deepening is therefore minimal once all smaller levels are
exhausted.  The same search with every rule off is kept as a test
reference in ``tests/_oracles.py``.

A frontier is one integer with a bit per tuple code, and a memo of failed
frontiers (kept across deepening levels) skips subtrees already exhausted
at the same or a larger remaining length; see ``_Searcher``.  Neither
changes a minimum or a witness.  ``nodes_explored`` counts expanded
candidates, so the memo only lowers it.

``exists_network`` succeeds as soon as the frontier completes, so a
returned witness may be shorter than the requested length; ``None`` means
no network of length <= ``length`` exists at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CounterTuple, Network, check_arity, closure_arity, start_tuple
from .errors import BudgetExceededError, CapExhaustedError


@dataclass(frozen=True)
class SearchSpec:
    n: int
    t: int
    star_only: bool = False
    max_len: int | None = None
    budget: int | None = None

    def __post_init__(self) -> None:
        check_arity(self.n, self.t)
        if self.budget is not None and self.budget < 1:
            raise ValueError("node budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    min_length: int
    witness: Network
    nodes_explored: int
    exhausted_levels: tuple[int, ...]

    def summary(self, spec: SearchSpec) -> str:
        star = "true" if spec.star_only else "false"
        return (
            f"MIN n={spec.n} t={spec.t} star={star} "
            f"len={self.min_length} nodes={self.nodes_explored}"
        )


# Entry cap of the failed-frontier memo.  At the cap the search goes on
# without storing more entries, so the cap bounds memory and never changes
# an answer.
_MEMO_CAP = 1 << 18


def _encode_tuple(x: CounterTuple, n: int) -> int:
    """Mixed-radix (base n, big-endian) code of a counter tuple.

    The encoding is a bijection from [n]^t onto 0..n^t-1 that preserves
    lexicographic order; the codes are the bit positions of frontier masks.
    """
    code = 0
    for e in x:
        code = code * n + (e - 1)
    return code


# (keep, ma, mb, shift) per coordinate, as built by _swap_masks.
SwapMasks = tuple[tuple[int, int, int, int], ...]


def _swap_masks(n: int, k: int, a: int, b: int) -> SwapMasks:
    """Bit-parallel image of (a, b) on frontiers over the n^k code space.

    Bit c of a frontier stands for the tuple with code c.  Along the
    coordinate of weight w = n^j, codes with digit a-1 move up by (b-a)w,
    codes with digit b-1 move down by as much, and the rest (``keep``)
    stay.  Each digit mask is one block of w bits per period of nw bits,
    made by multiplying the block with a repunit of that period.
    """
    full = (1 << n**k) - 1
    out = []
    w = 1
    for _ in range(k):
        repunit = full // ((1 << n * w) - 1)
        block = (1 << w) - 1
        ma = repunit * (block << (a - 1) * w)
        mb = repunit * (block << (b - 1) * w)
        out.append((full ^ ma ^ mb, ma, mb, (b - a) * w))
        w *= n
    return tuple(out)


class _Searcher:
    """Depth-first search over frontier bitmasks with a failed-state memo.

    By rule (ii) the active positions are always 1..m, and they are the
    values in frontier tuples, so a subtree depends only on (frontier,
    remaining).  ``memo`` maps a frontier to the largest ``remaining`` at
    which its subtree was exhausted without success; a failure at depth r
    is a failure at every depth below r, so such states are skipped.
    Entries are written only after a subtree is exhausted: a budget error
    unwinds without storing the states it cut short, and the memo never
    changes which witness is found first.  The memo lives as long as the
    searcher, across iterative-deepening levels.
    """

    def __init__(self, n: int, t: int, star_only: bool, budget: int | None):
        # t = n searches the same tree over n-fold smaller masks
        t = closure_arity(n, t)
        self.n = n
        self.t = t
        self.star_only = star_only
        self.budget = budget
        self.required = math.perm(n, t)
        self.start = 1 << _encode_tuple(start_tuple(t), n)
        self.nodes = 0
        self.memo: dict[int, int] = {}
        self.move_lists: dict[int, list] = {}
        self.path: list[tuple[int, int]] = []

    def candidates(self, m: int) -> list[tuple[int, int]]:
        """Branching order with positions 1..m active: pairs within them,
        then pairs activating m+1 (rules (i) and (ii)), lex each."""
        if self.star_only:
            within = [(1, x) for x in range(2, m + 1)]
            new = [(1, m + 1)]
        else:
            within = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
            new = [(a, m + 1) for a in range(1, m + 1)]
        return within + new if m < self.n else within

    def moves(self, m: int) -> list[tuple[int, int, SwapMasks, int]]:
        """Candidates with m active, their masks and next active count, cached."""
        out = self.move_lists.get(m)
        if out is None:
            out = [
                (a, b, _swap_masks(self.n, self.t, a, b), max(m, b))
                for a, b in self.candidates(m)
            ]
            self.move_lists[m] = out
        return out

    def run(self, length: int) -> Network | None:
        self.path = []
        if self._dfs(self.start, self.t, length):
            return Network.from_pairs(self.n, self.path)
        return None

    def _dfs(self, frontier: int, m: int, remaining: int) -> bool:
        size = frontier.bit_count()
        if size == self.required:
            return True
        # rule (iv): each step at most doubles the frontier and activates
        # at most one position
        if remaining == 0 or size << remaining < self.required or self.n - m > remaining:
            return False
        memo = self.memo
        if memo.get(frontier, 0) >= remaining:
            return False
        budget = self.budget
        for a, b, masks, nxt_m in self.moves(m):
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExceededError(
                    f"search node budget {budget} exceeded (result unknown)"
                )
            image = frontier
            for keep, ma, mb, shift in masks:
                image = (image & keep) | ((image & ma) << shift) | ((image & mb) >> shift)
            child = frontier | image
            if child == frontier:  # rule (iii)
                continue
            self.path.append((a, b))
            if self._dfs(child, nxt_m, remaining - 1):
                return True
            self.path.pop()
        # at remaining 1 a recheck costs one pass over the candidates, less
        # than the memory an entry would take
        if remaining > 1 and len(memo) < _MEMO_CAP:
            memo[frontier] = remaining
        return False


def exists_network(
    n: int,
    t: int,
    length: int,
    star_only: bool = False,
    *,
    budget: int | None = None,
) -> Network | None:
    """Witness of length <= ``length``, or None after exhausting the level.

    Raises BudgetExceededError when the node budget is hit first; that
    outcome carries no feasibility information.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    check_arity(n, t)
    return _Searcher(n, t, star_only, budget).run(length)


def min_length(spec: SearchSpec) -> SearchResult:
    """Iterative deepening from n-1 upward.

    Every level below the answer is proven infeasible by exhaustion and
    recorded in ``exhausted_levels``.
    """
    searcher = _Searcher(spec.n, spec.t, spec.star_only, spec.budget)
    exhausted: list[int] = []
    level = spec.n - 1
    while spec.max_len is None or level <= spec.max_len:
        witness = searcher.run(level)
        if witness is not None:
            return SearchResult(len(witness), witness, searcher.nodes, tuple(exhausted))
        exhausted.append(level)
        level += 1
    raise CapExhaustedError(
        f"no {spec.t}-reachability network of length <= {spec.max_len} exists "
        f"(levels {exhausted} exhausted)"
    )
