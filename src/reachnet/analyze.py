"""Structural diagnostics: edge coloring, deficits, occurrence classes.

The coloring replays a network against the root positions 1 and 2, so it
needs n >= 2.  A position activates on its first appearance alongside an
active one; the edge is black when it activates something (a tree edge)
and red when both endpoints were already active.  One convention beyond the raw rule: the
first edge joining the two root trees is colored black and recorded as
the join edge, which makes the black edges a spanning tree rooted at the
root pair on well-formed inputs.  The analyzer never rewrites the input
sequence; it reports on the network as given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Network

BLACK = "black"
RED = "red"
BLUE = "blue"

ROOTS = (1, 2)


@dataclass(frozen=True)
class EdgeRecord:
    index: int  # 1-based position in the sequence
    a: int
    b: int
    color: str
    activated: int | None  # position first activated by this edge
    removable: bool  # both endpoints inactive when processed
    root_join: bool

    def line(self) -> str:
        return f"{self.index} {self.a} {self.b} {self.color}"


@dataclass(frozen=True)
class EdgeColoring:
    n: int
    edges: tuple[EdgeRecord, ...]
    activation_order: tuple[tuple[int, int], ...]  # (position, edge index)
    parent: dict[int, int]  # black-forest parent map over activated positions
    joined: bool  # the two root trees met

    @property
    def black_count(self) -> int:
        return sum(1 for e in self.edges if e.color == BLACK and not e.removable)

    @property
    def red_count(self) -> int:
        return sum(1 for e in self.edges if e.color == RED)

    @property
    def removable_count(self) -> int:
        return sum(1 for e in self.edges if e.removable)

    @property
    def active(self) -> frozenset[int]:
        return frozenset(ROOTS) | frozenset(v for v, _ in self.activation_order)

    @property
    def spanning(self) -> bool:
        """Black edges form one tree covering every position."""
        return self.joined and len(self.active) == self.n

    def red_degrees(self) -> Counter:
        deg: Counter = Counter()
        for e in self.edges:
            if e.color == RED:
                deg[e.a] += 1
                deg[e.b] += 1
        return deg

    def render(self) -> str:
        lines = [e.line() for e in self.edges]
        lines.append(f"black {self.black_count}")
        lines.append(f"red {self.red_count}")
        if self.removable_count:
            removable = " ".join(str(e.index) for e in self.edges if e.removable)
            lines.append(f"removable {removable}")
        for e in self.edges:
            if e.root_join:
                lines.append(f"join {e.index}")
        lines.append(f"red_degree_sum {2 * self.red_count}")
        return "\n".join(lines)


def color_edges(net: Network) -> EdgeColoring:
    """Replay the sequence, activating on first contact and coloring edges.

    Edges between two inactive positions are flagged removable: they can
    never move a counter, so a shorter equivalent network drops them.
    """
    if net.n < 2:
        raise ValueError(f"the coloring is rooted at positions 1 and 2, so n >= 2, got n={net.n}")
    active = set(ROOTS)
    tree = {1: 0, 2: 1}
    joined = False
    parent: dict[int, int] = {}
    records: list[EdgeRecord] = []
    activation: list[tuple[int, int]] = []
    for i, tau in enumerate(net.seq, 1):
        a, b = tau.a, tau.b
        activated: int | None = None
        removable = False
        root_join = False
        if a in active and b in active:
            if not joined and tree[a] != tree[b]:
                color = BLACK
                root_join = True
                joined = True
            else:
                color = RED
        elif a in active or b in active:
            new, anchor = (b, a) if a in active else (a, b)
            color = BLACK
            activated = new
            active.add(new)
            parent[new] = anchor
            tree[new] = tree[anchor]
            activation.append((new, i))
        else:
            color = BLACK  # raw rule: an endpoint was inactive
            removable = True
        records.append(EdgeRecord(i, a, b, color, activated, removable, root_join))
    return EdgeColoring(net.n, tuple(records), tuple(activation), parent, joined)


@dataclass(frozen=True)
class VertexDeficit:
    vertex: int
    subtree_size: int
    red_degree_sum: int  # summed over the subtree
    deficit: int  # subtree_size - red_degree_sum


@dataclass(frozen=True)
class DeficitReport:
    coloring: EdgeColoring
    per_vertex: tuple[VertexDeficit, ...]  # sorted by vertex, activated ones only
    total_red_degree: int
    spanning: bool
    warning: str | None

    def deficit_of(self, v: int) -> int:
        for rec in self.per_vertex:
            if rec.vertex == v:
                return rec.deficit
        raise KeyError(f"position {v} was never activated")

    def render(self) -> str:
        lines = [self.coloring.render()]
        for rec in self.per_vertex:
            lines.append(
                f"vertex {rec.vertex} subtree {rec.subtree_size} "
                f"red {rec.red_degree_sum} deficit {rec.deficit}"
            )
        lines.append(f"total_red_degree {self.total_red_degree}")
        if self.warning:
            lines.append(f"warning {self.warning}")
        return "\n".join(lines)


def deficit_report(net: Network) -> DeficitReport:
    """Per-position subtree sizes, red-degree sums, and deficits.

    The subtree of v is everything whose black path to the root pair
    passes through v; deficit(v) = |T_v| - sum of red degrees over T_v.
    Positions never activated are left out and flagged in the warning.
    """
    coloring = color_edges(net)
    red = coloring.red_degrees()
    children: dict[int, list[int]] = {}
    for child, par in coloring.parent.items():
        children.setdefault(par, []).append(child)

    size: dict[int, int] = {}
    redsum: dict[int, int] = {}
    # children are activated after their parent, so reverse activation
    # order visits every subtree bottom-up; roots come last
    order = [v for v, _ in reversed(coloring.activation_order)] + list(ROOTS)
    for v in order:
        size[v] = 1 + sum(size[c] for c in children.get(v, ()))
        redsum[v] = red.get(v, 0) + sum(redsum[c] for c in children.get(v, ()))

    per_vertex = tuple(
        VertexDeficit(v, size[v], redsum[v], size[v] - redsum[v]) for v in sorted(size)
    )
    total_red = 2 * coloring.red_count
    warning = None
    if not coloring.spanning:
        missing = sorted(set(range(1, net.n + 1)) - coloring.active)
        parts = []
        if missing:
            parts.append(f"positions never activated: {missing}")
        if not coloring.joined:
            parts.append("root trees never joined")
        warning = "partial report; " + "; ".join(parts)
    return DeficitReport(coloring, per_vertex, total_red, coloring.spanning, warning)


@dataclass(frozen=True)
class OccurrenceClasses:
    """Per-occurrence classes of a star network.

    black: sole occurrence of its transposition; blue: first of several;
    red: any repeat occurrence.  black + blue counts the distinct
    transpositions used.
    """

    classes: tuple[str, ...]
    black: int
    blue: int
    red: int

    def render(self) -> str:
        return "\n".join(
            [f"black {self.black}", f"blue {self.blue}", f"red {self.red}"]
        )


def star_occurrence_classes(net: Network) -> OccurrenceClasses:
    """Classify every occurrence of a star network's transpositions."""
    if not net.is_star:
        raise ValueError("occurrence classification requires a star network")
    totals = Counter(net.seq)
    seen: set = set()
    classes: list[str] = []
    for tau in net.seq:
        if totals[tau] == 1:
            classes.append(BLACK)
        elif tau in seen:
            classes.append(RED)
        else:
            classes.append(BLUE)
        seen.add(tau)
    counts = Counter(classes)
    return OccurrenceClasses(
        tuple(classes), counts[BLACK], counts[BLUE], counts[RED]
    )
