import io
from fractions import Fraction

import pytest

from reachnet import (
    LazyNetwork,
    Network,
    RandomConstructionParams,
    parse_network,
    t_reach_random_full,
    two_reach,
    verify_reachability,
)
from reachnet.cli import FAMILIES, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 0, err
    return path


def test_gen_two_reach_9(capsys):
    code, out, _ = run(capsys, "gen", "--family", "two-reach", "-n", "9")
    assert code == 0
    net = parse_network(out)
    assert net == two_reach(9)
    assert len(net) == 12
    assert "# cmdline: reachnet gen --family two-reach -n 9" in out


def test_gen_two_unif_star(capsys):
    code, out, _ = run(capsys, "gen", "--family", "two-unif-star", "-n", "4")
    assert code == 0
    net = parse_network(out)
    assert isinstance(net, LazyNetwork) and len(net) == 5


def test_gen_t_reach_random_headers(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "r.net",
        "gen", "--family", "t-reach-random", "-n", "30", "-t", "3", "--seed", "7",
    )
    text = path.read_text()
    assert "# seed 7" in text and "# retries " in text
    net = parse_network(text)
    assert verify_reachability(net, 3).ok


def test_gen_retries_exhausted_exit_3(capsys):
    import random

    from reachnet import RandomConstructionParams, check_expansion, sample_support

    base = RandomConstructionParams(t=3, n=20, seed=0)
    bad_seed = next(
        seed for seed in range(2000)
        if not check_expansion(sample_support(base, random.Random(seed)), 3)
    )
    code, _, err = run(
        capsys, "gen", "--family", "t-reach-random", "-n", "20", "-t", "3",
        "--seed", str(bad_seed), "--max-retries", "1",
    )
    assert code == 3 and "expansion" in err


def test_gen_max_retries_default_and_zero(monkeypatch, capsys):
    from reachnet import RandomConstructionParams, cli

    seen = []
    build = cli.t_reach_random_full

    def spy(params):
        seen.append(params.max_retries)
        return build(params)

    monkeypatch.setattr(cli, "t_reach_random_full", spy)
    argv = ["gen", "--family", "t-reach-random", "-n", "20", "-t", "3", "--seed", "1"]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--max-retries", "5")[0] == 0
    assert seen == [RandomConstructionParams(t=3, n=20, seed=1).max_retries, 5]
    code, _, err = run(capsys, *argv, "--max-retries", "0")
    assert code == 2 and "max_retries" in err


def test_gen_rejects_irrelevant_flags(capsys):
    code, _, err = run(capsys, "gen", "--family", "two-reach", "-n", "9", "--seed", "1")
    assert code == 2 and "t-reach-random" in err


def test_gen_usage_errors(capsys):
    code, _, _ = run(capsys, "gen", "--family", "nope", "-n", "4")
    assert code == 2
    code, _, err = run(capsys, "gen", "--family", "two-reach", "-n", "1")
    assert code == 2
    code, _, err = run(capsys, "gen", "--family", "t-reach-random", "-n", "30")
    assert code == 2 and "-t" in err


@pytest.mark.parametrize("eps", ["1/0", "0.1", "1e-1", "1/5 ", "1", "-1/5"])
def test_gen_epsilon_takes_num_den_only(capsys, eps):
    code, out, err = run(
        capsys, "gen", "--family", "t-reach-random", "-n", "30", "-t", "3", "--epsilon", eps
    )
    assert code == 2 and out == ""
    assert "--epsilon" in err and "Traceback" not in err


def test_gen_epsilon_num_den(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "t-reach-random", "-n", "30", "-t", "3",
        "--epsilon", "1/6", "--seed", "2",
    )
    built = t_reach_random_full(
        RandomConstructionParams(t=3, n=30, seed=2, epsilon=Fraction(1, 6))
    )
    assert code == 0 and parse_network(out) == built.network


def test_every_family_gen_then_verify(tmp_path, capsys):
    cases = {
        "one-reach": (["-n", "8"], ["verify", "-t", "1"]),
        "two-reach": (["-n", "9"], ["verify", "-t", "2"]),
        "two-reach-star": (["-n", "8"], ["verify", "-t", "2"]),
        "waksman": (["-n", "5"], ["verify", "-t", "5"]),
        "t-reach-random": (["-n", "20", "-t", "3", "--seed", "3"], ["verify", "-t", "3"]),
        "two-unif-star": (["-n", "6"], ["verify", "-t", "2", "--uniform"]),
    }
    assert cases.keys() == FAMILIES.keys()
    for i, (family, (flags, verify_argv)) in enumerate(cases.items()):
        gen_argv = ["gen", "--family", family, *flags]
        path = gen_file(tmp_path, capsys, f"net{i}.txt", *gen_argv)
        code, out, err = run(capsys, *verify_argv, str(path))
        assert code == 0, (gen_argv, err, out)
        assert out.startswith("OK")


def test_verify_fail_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("reachnet 1\nn 3\nkind plain\n1 2\n")
    code, out, _ = run(capsys, "verify", "-t", "2", str(path))
    assert code == 1
    assert out.splitlines()[0] == "FAIL reached=2 required=6"
    assert "missing 1 3" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    from reachnet import render_network

    monkeypatch.setattr("sys.stdin", io.StringIO(render_network(two_reach(6))))
    code, out, _ = run(capsys, "verify", "-t", "2")
    assert code == 0 and out.startswith("OK reached=30 required=30")


def test_verify_kind_mismatch_exit_2(tmp_path, capsys):
    plain = tmp_path / "p.net"
    plain.write_text("reachnet 1\nn 2\nkind plain\n1 2\n")
    code, _, err = run(capsys, "verify", "-t", "2", "--uniform", str(plain))
    assert code == 2 and "lazy" in err
    lazy = tmp_path / "l.net"
    lazy.write_text("reachnet 1\nn 2\nkind lazy\n1 2 1/2\n")
    code, _, err = run(capsys, "verify", "-t", "2", str(lazy))
    assert code == 2 and "plain" in err


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.net"
    path.write_text("not a network\n")
    code, _, err = run(capsys, "verify", "-t", "2", str(path))
    assert code == 2 and "error:" in err


def test_verify_budget_exit_3(tmp_path, capsys):
    path = tmp_path / "big.net"
    path.write_text("reachnet 1\nn 9\nkind plain\n1 2\n")
    code, _, err = run(capsys, "verify", "-t", "2", "--budget", "10", str(path))
    assert code == 3 and "budget" in err


def test_search_summary_and_witness(capsys):
    code, out, _ = run(capsys, "search", "-n", "4", "-t", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("MIN n=4 t=2 star=false len=4 nodes=")
    net = parse_network("\n".join(lines[1:]))
    assert verify_reachability(net, 2).ok


def test_search_star(capsys):
    code, out, _ = run(capsys, "search", "-n", "4", "-t", "2", "--star")
    assert code == 0
    assert out.splitlines()[0].startswith("MIN n=4 t=2 star=true len=5")


def test_search_trivial(capsys):
    code, out, _ = run(capsys, "search", "-n", "2", "-t", "2")
    assert code == 0 and "len=1" in out.splitlines()[0]


def test_search_budget_exit_3(capsys):
    code, _, err = run(capsys, "search", "-n", "5", "-t", "2", "--budget", "5")
    assert code == 3 and "budget" in err


def test_search_max_len_exit_3(capsys):
    code, _, err = run(capsys, "search", "-n", "4", "-t", "2", "--max-len", "3")
    assert code == 3 and "exhausted" in err


def test_analyze_edges(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "n9.net", "gen", "--family", "two-reach", "-n", "9")
    code, out, _ = run(capsys, "analyze", "--mode", "edges", str(path))
    assert code == 0
    assert "red 4" in out and "black 8" in out


def test_analyze_deficit(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "n9.net", "gen", "--family", "two-reach", "-n", "9")
    code, out, _ = run(capsys, "analyze", "--mode", "deficit", str(path))
    assert code == 0
    nonzero = [
        line for line in out.splitlines()
        if line.startswith("vertex") and not line.endswith("deficit 0")
    ]
    assert sorted(line.split()[1] for line in nonzero) == ["1", "9"]


def test_analyze_occurrences(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "s5.net", "gen", "--family", "two-reach-star", "-n", "5"
    )
    code, out, _ = run(capsys, "analyze", "--mode", "occurrences", str(path))
    assert code == 0
    assert "black 2" in out and "red 2" in out and "blue 2" in out
    assert out.splitlines()[0] == "1 1 2 blue"


def test_analyze_occurrences_rejects_non_star(tmp_path, capsys):
    path = tmp_path / "ns.net"
    path.write_text("reachnet 1\nn 3\nkind plain\n2 3\n")
    code, _, err = run(capsys, "analyze", "--mode", "occurrences", str(path))
    assert code == 2 and "star" in err


def test_analyze_rejects_lazy_input(tmp_path, capsys):
    path = tmp_path / "l.net"
    path.write_text("reachnet 1\nn 3\nkind lazy\n1 2 1/2\n")
    code, _, err = run(capsys, "analyze", "--mode", "edges", str(path))
    assert code == 2 and "plain" in err


@pytest.mark.parametrize("mode", ["edges", "deficit"])
def test_analyze_coloring_needs_two_positions(tmp_path, capsys, mode):
    path = tmp_path / "n1.net"
    path.write_text("reachnet 1\nn 1\nkind plain\n")
    code, out, err = run(capsys, "analyze", "--mode", mode, str(path))
    assert code == 2 and out == ""
    assert "positions 1 and 2" in err and "Traceback" not in err


def test_missing_input_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "-t", "2", "/nonexistent/net.txt")
    assert code == 2 and "error:" in err


def test_convert_plain(tmp_path, capsys):
    src = tmp_path / "p.net"
    src.write_text("reachnet 1\nn 3\nkind plain\n2 3\n")
    code, out, _ = run(capsys, "convert", "--to-star", str(src))
    assert code == 0
    assert parse_network(out) == Network.from_pairs(3, [(1, 2), (1, 3), (1, 2)])


def test_convert_lazy(tmp_path, capsys):
    src = tmp_path / "l.net"
    src.write_text("reachnet 1\nn 3\nkind lazy\n2 3 1/2\n")
    code, out, _ = run(capsys, "convert", "--to-star", str(src))
    assert code == 0
    net = parse_network(out)
    assert isinstance(net, LazyNetwork)
    assert [(t.a, t.b, str(t.p)) for t in net.seq] == [
        (1, 2, "1"), (1, 3, "1/2"), (1, 2, "1"),
    ]


def test_convert_star_is_identity(tmp_path, capsys):
    src = tmp_path / "s.net"
    src.write_text("reachnet 1\nn 4\nkind plain\n1 4\n1 2\n")
    code, out, _ = run(capsys, "convert", "--to-star", str(src))
    assert code == 0
    assert parse_network(out) == Network.from_pairs(4, [(1, 4), (1, 2)])


def test_convert_requires_flag(tmp_path, capsys):
    src = tmp_path / "s.net"
    src.write_text("reachnet 1\nn 2\nkind plain\n1 2\n")
    code, _, err = run(capsys, "convert", str(src))
    assert code == 2 and "--to-star" in err


def test_no_command_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_repeated_main_calls_match_fresh_ones(tmp_path, capsys):
    # the parser is built once per process; no call may see another's flags
    net = tmp_path / "n6.net"
    net.write_text("reachnet 1\nn 6\nkind plain\n1 2\n")
    calls = [
        ["gen", "--family", "t-reach-random", "-n", "20", "-t", "3", "--seed", "3"],
        ["gen", "--family", "nope", "-n", "4"],
        ["gen", "--family", "two-reach", "-n", "9"],
        ["gen", "--family", "two-reach", "-n", "9", "--seed", "1"],
        ["search", "-n", "4", "-t", "2", "--star"],
        ["search", "-n", "4", "-t", "2"],
        ["verify", "-t", "2", str(net)],
        ["gen", "--family", "waksman", "-n", "4"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0, 1, 0]


def test_gen_looks_builders_up_at_call_time(monkeypatch, capsys):
    # wrappers swapped in for cli's builder names must see every gen call
    from reachnet import cli

    builders = ["one_reach", "two_reach", "two_reach_star", "waksman_permutation_network",
                "t_reach_random_full", "two_unif_star"]
    seen = []
    for name in builders:
        def traced(*args, _name=name, _fn=getattr(cli, name)):
            seen.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, traced)
    for family in FAMILIES:
        flags = ["-t", "3", "--seed", "3"] if family == "t-reach-random" else []
        code, _, err = run(capsys, "gen", "--family", family, "-n", "20", *flags)
        assert code == 0, err
    assert seen == builders
