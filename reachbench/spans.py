"""Spans around the public functions that ``reachnet.cli`` calls.

While installed, every such function, and ``cli.main`` itself, records a
span (name, start, end, parent span, job id) plus the work counts its
result reports.  Spans stay in memory; the worker hands them to run.py,
which writes them out when the run ends.  Nothing inside the package is
changed: the wrappers replace names in the ``reachnet.cli`` namespace
only for the duration of the ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator


# name in reachnet.cli -> (layer, work counts taken from (args, result))
WRAPPED: dict[str, tuple[str, Callable | None]] = {
    "parse_network": ("core.parse", lambda a, r: {"lines": len(a[0].splitlines())}),
    "render_network": ("core.render", lambda a, r: {"lines": r.count("\n")}),
    "one_reach": ("constructors.build", None),
    "two_reach": ("constructors.build", None),
    "two_reach_star": ("constructors.build", None),
    "waksman_permutation_network": ("constructors.build", None),
    "two_unif_star": ("constructors.build", None),
    "t_reach_random_full": ("constructors.build", lambda a, r: {
        "attempts": r.retries + 1, "accepted": 1,
    }),
    "network_to_star": ("constructors.convert", None),
    "lazy_to_star": ("constructors.convert", None),
    "verify_reachability": ("verify.reach", lambda a, r: {
        "tuples": r.reached, "steps": r.steps_used, "length": len(a[0]), "fail": int(not r.ok),
    }),
    "verify_uniformity": ("verify.uniform", lambda a, r: {
        "tuples": r.required, "steps": len(a[0]), "deviations": len(r.deviations),
    }),
    "min_length": ("search", lambda a, r: {
        "nodes": r.nodes_explored, "levels": len(r.exhausted_levels) + 1,
    }),
    "color_edges": ("analyze", None),
    "deficit_report": ("analyze", None),
    "star_occurrence_classes": ("analyze", None),
}

# Counts for a call that raised: an exhausted random build sampled and
# rejected every support it was allowed.
ERROR_COUNTS: dict[str, Callable] = {
    "t_reach_random_full": lambda a, e: {"attempts": a[0].max_retries, "exhausted": 1},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job = ""

    def wrap(
        self, name: str, fn: Callable, counts: Callable | None = None,
        error_counts: Callable | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            span = {"name": name, "job": self.job, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = perf_counter()
                span["error"] = type(exc).__name__
                if error_counts is not None:
                    span.update(error_counts(args, exc))
                raise
            else:
                span["end"] = perf_counter()
                if counts is not None:
                    span.update(counts(args, result))
                return result
            finally:
                self._open.pop()

        return traced

    @contextmanager
    def installed(self, cli: ModuleType) -> Iterator[Callable]:
        """Patch ``cli``'s names; yields a traced ``cli.main``."""
        saved = {name: getattr(cli, name) for name in WRAPPED}
        try:
            for name, (layer, counts) in WRAPPED.items():
                setattr(cli, name, self.wrap(layer, saved[name], counts, ERROR_COUNTS.get(name)))
            yield self.wrap("cli", cli.main)
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer calls, self time and work counts, summed over ``spans``.

    Self time is a span's duration minus the durations of its children;
    spans nest strictly because the benchmark runs one job at a time.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    tot: dict[str, float] = {}
    for s, c in zip(spans, child):
        layer = s["name"]
        tot[f"{layer}.calls"] = tot.get(f"{layer}.calls", 0) + 1
        tot[f"{layer}.self_s"] = tot.get(f"{layer}.self_s", 0.0) + s["end"] - s["start"] - c
        for key, value in s.items():
            if key not in ("name", "job", "parent", "start", "end", "error"):
                tot[f"{layer}.{key}"] = tot.get(f"{layer}.{key}", 0) + value

    def get(key: str) -> float:
        return tot.get(key, 0)

    def ratio(num: str, den: str) -> float:
        return get(num) / get(den) if get(den) else 0.0

    return {
        "verify.reach.calls": get("verify.reach.calls"),
        "verify.reach.self_s": get("verify.reach.self_s"),
        "verify.reach.tuples": get("verify.reach.tuples"),
        "verify.reach.steps": get("verify.reach.steps"),
        "verify.reach.steps_ratio": ratio("verify.reach.steps", "verify.reach.length"),
        "verify.reach.fail": get("verify.reach.fail"),
        "verify.reach.tuples_per_s": ratio("verify.reach.tuples", "verify.reach.self_s"),
        "verify.uniform.calls": get("verify.uniform.calls"),
        "verify.uniform.self_s": get("verify.uniform.self_s"),
        "verify.uniform.tuples": get("verify.uniform.tuples"),
        "verify.uniform.steps": get("verify.uniform.steps"),
        "verify.uniform.deviations": get("verify.uniform.deviations"),
        "constructors.build.calls": get("constructors.build.calls"),
        "constructors.build.self_s": get("constructors.build.self_s"),
        "constructors.random.attempts": get("constructors.build.attempts"),
        "constructors.random.accept_ratio": ratio(
            "constructors.build.accepted", "constructors.build.attempts"
        ),
        "constructors.random.exhausted": get("constructors.build.exhausted"),
        "constructors.convert.self_s": get("constructors.convert.self_s"),
        "search.calls": get("search.calls"),
        "search.self_s": get("search.self_s"),
        "search.nodes": get("search.nodes"),
        "search.nodes_per_s": ratio("search.nodes", "search.self_s"),
        "search.levels": get("search.levels"),
        "core.parse.calls": get("core.parse.calls"),
        "core.parse.self_s": get("core.parse.self_s"),
        "core.parse.lines": get("core.parse.lines"),
        "core.render.self_s": get("core.render.self_s"),
        "core.render.lines": get("core.render.lines"),
        "cli.calls": get("cli.calls"),
        "cli.self_s": get("cli.self_s"),
        "analyze.calls": get("analyze.calls"),
        "analyze.self_s": get("analyze.self_s"),
    }
