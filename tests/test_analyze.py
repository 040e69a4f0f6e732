import random

import pytest

from reachnet import (
    Network,
    color_edges,
    deficit_report,
    one_reach,
    star_occurrence_classes,
    two_reach,
    two_reach_star,
    verify_reachability,
)


def test_color_two_reach_9():
    col = color_edges(two_reach(9))
    assert col.black_count == 8
    assert col.red_count == 4
    reds = [(e.a, e.b, e.index) for e in col.edges if e.color == "red"]
    assert reds == [(3, 4, 9), (5, 6, 10), (7, 8, 11), (1, 2, 12)]
    assert col.edges[0].root_join  # the opening (1,2) joins the root trees
    assert col.spanning


def test_color_flags_removable():
    col = color_edges(Network.from_pairs(4, [(3, 4), (1, 2)]))
    assert col.edges[0].removable
    assert col.removable_count == 1
    assert col.edges[1].root_join


def test_color_two_reach_4():
    col = color_edges(two_reach(4))
    assert (col.black_count, col.red_count) == (3, 1)


def test_black_forest_shape():
    # before the join, black edges form at most two trees, one per root
    rng = random.Random(8)
    nets = [two_reach(n) for n in range(2, 12)] + [two_reach_star(n) for n in range(3, 12)]
    for _ in range(60):
        n = rng.randint(2, 7)
        ps = []
        for _ in range(rng.randint(0, 12)):
            a = rng.randint(1, n)
            b = rng.randint(1, n)
            while b == a:
                b = rng.randint(1, n)
            ps.append((a, b))
        nets.append(Network.from_pairs(n, ps))
    for net in nets:
        col = color_edges(net)
        # every activated vertex hangs below exactly one root
        for v, _ in col.activation_order:
            hops = 0
            while v not in (1, 2):
                v = col.parent[v]
                hops += 1
                assert hops <= net.n
        joins = [e for e in col.edges if e.root_join]
        assert len(joins) <= 1


def test_deficit_two_reach_9():
    rep = deficit_report(two_reach(9))
    deficits = {r.vertex: r.deficit for r in rep.per_vertex}
    assert all(d <= 1 for d in deficits.values())
    assert {v for v, d in deficits.items() if d != 0} == {1, 9}
    assert rep.total_red_degree == 8
    assert rep.total_red_degree >= 9 - 2
    assert rep.spanning and rep.warning is None


def test_deficit_single_leaf_with_red_edge():
    # leaf 3 hangs off 1 and also sits on a red edge: deficit 1 - 1 = 0
    net = Network.from_pairs(3, [(1, 2), (1, 3), (2, 3)])
    rep = deficit_report(net)
    assert rep.deficit_of(3) == 0


def test_deficit_identity_recursive_form():
    rng = random.Random(21)
    nets = [two_reach(n) for n in range(2, 14)] + [two_reach_star(n) for n in range(3, 14)]
    for _ in range(40):
        n = rng.randint(2, 8)
        ps = []
        for _ in range(rng.randint(0, 14)):
            a = rng.randint(1, n)
            b = rng.randint(1, n)
            while b == a:
                b = rng.randint(1, n)
            ps.append((a, b))
        nets.append(Network.from_pairs(n, ps))
    for net in nets:
        rep = deficit_report(net)
        red = rep.coloring.red_degrees()
        children: dict[int, list[int]] = {}
        for child, par in rep.coloring.parent.items():
            children.setdefault(par, []).append(child)
        deficits = {r.vertex: r.deficit for r in rep.per_vertex}
        for r in rep.per_vertex:
            v = r.vertex
            assert r.deficit == 1 - red.get(v, 0) + sum(
                deficits[c] for c in children.get(v, ())
            )


def test_deficit_partial_report_warns():
    rep = deficit_report(Network.from_pairs(5, [(1, 3), (2, 4)]))
    assert not rep.spanning
    assert rep.warning is not None and "5" in rep.warning


def test_occurrences_two_reach_star_5():
    occ = star_occurrence_classes(two_reach_star(5))
    assert occ.classes == ("blue", "blue", "black", "red", "black", "red")
    assert (occ.black, occ.red, occ.blue) == (2, 2, 2)


def test_occurrences_single():
    occ = star_occurrence_classes(Network.from_pairs(2, [(1, 2)]))
    assert (occ.black, occ.red, occ.blue) == (1, 0, 0)


def test_occurrences_black_plus_blue_counts_distinct():
    for n in range(3, 12):
        net = two_reach_star(n)
        occ = star_occurrence_classes(net)
        assert occ.black + occ.blue == n - 1  # touches every position
    occ = star_occurrence_classes(one_reach(6))
    assert occ.black + occ.blue == 5


def test_occurrences_rejects_non_star():
    with pytest.raises(ValueError):
        star_occurrence_classes(Network.from_pairs(3, [(2, 3)]))


def test_red_at_least_black_on_verified_star_networks():
    # holds for n >= 3 (n=2 is the genuine exception: [(1,2)] alone is
    # 2-reachable with one black occurrence and no red one)
    nets = [two_reach_star(n) for n in range(3, 16)]
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(3, 7)
        ps = [(1, rng.randint(2, n)) for _ in range(rng.randint(1, 2 * n + 2))]
        nets.append(Network.from_pairs(n, ps))
    checked = 0
    for net in nets:
        if verify_reachability(net, 2).ok:
            occ = star_occurrence_classes(net)
            assert occ.red >= occ.black, net
            checked += 1
    assert checked >= 20


def test_coloring_needs_positions_1_and_2():
    for report in (color_edges, deficit_report):
        with pytest.raises(ValueError, match="positions 1 and 2"):
            report(Network(1, ()))
        assert report(Network(2, ())).render().startswith("black 0\nred 0")


def test_render_formats():
    col = color_edges(two_reach(4))
    lines = col.render().splitlines()
    assert lines[0] == "1 1 2 black"
    assert "red_degree_sum 2" in lines
    rep = deficit_report(two_reach(4))
    assert any(line.startswith("vertex 1 subtree") for line in rep.render().splitlines())
