"""Per-layer timing from outside the program.

`LayerTrace.install` replaces tdopt functions with timing wrappers at the
module attribute where their caller looks them up (for example
`tdopt.verdict.analyze_channel`), so the program itself is not edited. Each
wrapper records calls, busy time and self time, which is busy time minus the
time spent in the wrapped calls it makes. `restore` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

# (module, attribute, layer). One function can be wrapped at several sites.
SITES = (
    ("tdopt.cli", "main", "cli"),
    ("tdopt.cli", "decide_td_optimality", "verdict"),
    ("tdopt.cli", "verdict_to_dict", "verdict"),
    ("tdopt.cli", "more_capable_check", "comparison"),
    ("tdopt.cli", "ratio_condition_check", "comparison"),
    ("tdopt.cli", "divergence_form_check", "comparison"),
    ("tdopt.cli", "vertex_screen", "comparison"),
    ("tdopt.verdict", "more_capable_check", "comparison"),
    ("tdopt.verdict", "ratio_condition_check", "comparison"),
    ("tdopt.comparison", "dc_minimize", "comparison"),
    ("tdopt.cli", "sample_marton", "bounds"),
    ("tdopt.cli", "sample_uv", "bounds"),
    ("tdopt.cli", "td_boundary_sample", "bounds"),
    ("tdopt.verdict", "sample_marton", "bounds"),
    ("tdopt.verdict", "sample_uv", "bounds"),
    ("tdopt.bounds", "marton_rates", "bounds"),
    ("tdopt.bounds", "uv_bound_rates", "bounds"),
    ("tdopt.bounds", "mutual_information_pair", "core"),
    ("tdopt.bounds", "extend_with_channel", "core"),
    ("tdopt.cli", "analyze_channel", "capacity"),
    ("tdopt.verdict", "analyze_channel", "capacity"),
    ("tdopt.capacity", "compute_capacity", "capacity"),
    ("tdopt.capacity", "lp_solve_max_coordinate", "simplex"),
)

# counts read off results: dc_minimize's evaluations, compute_capacity's iterations
RESULT_COUNTS = {"dc_minimize": "evaluations", "compute_capacity": "iterations"}


@dataclass
class SiteStats:
    layer: str
    function: str
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    count: int = 0


class LayerTrace:
    def __init__(self):
        self.stats = {f"{m}.{a}": SiteStats(layer, a) for m, a, layer in SITES}
        self._stack: list[list[float]] = []  # [start, time in wrapped callees]
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        count_attr = RESULT_COUNTS.get(stats.function)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                stats.calls += 1
                stats.busy += busy
                stats.self_time += busy - frame[1]
            if count_attr is not None:
                stats.count += getattr(result, count_attr)
            return result

        return wrapper

    def install(self):
        for module_name, attr, _ in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def restore(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def reset(self):
        """Zero every figure in place; the installed wrappers keep their stats."""
        for s in self.stats.values():
            s.calls, s.busy, s.self_time, s.count = 0, 0.0, 0.0, 0

    def _sum(self, field: str, layer: str | None = None, functions=()) -> float:
        return sum(getattr(s, field) for s in self.stats.values()
                   if (layer is None or s.layer == layer)
                   and (not functions or s.function in functions))

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per timed pass: busy seconds, calls and counts
        summed over one pass of the corpus, plus rates."""
        per = 1.0 / passes

        def busy(*functions):
            return self._sum("busy", functions=functions) * per

        search_s = busy("dc_minimize")
        sample_s = busy("sample_marton", "sample_uv")
        evaluations = self._sum("count", functions=("dc_minimize",)) * per
        joints = self._sum("calls", functions=("marton_rates", "uv_bound_rates")) * per
        return {
            "cli.command_s": (busy("main"), "s/pass"),
            "cli.self_s": (self._sum("self_time", "cli") * per, "s/pass"),
            "verdict.self_s": (self._sum("self_time", "verdict") * per, "s/pass"),
            "verdict.to_dict_s": (busy("verdict_to_dict"), "s/pass"),
            "comparison.search_s": (search_s, "s/pass"),
            "comparison.self_s": (self._sum("self_time", "comparison") * per, "s/pass"),
            "comparison.evaluations": (evaluations, "count/pass"),
            "comparison.evaluations_per_s": (evaluations / search_s if search_s else 0.0, "1/s"),
            "comparison.vertex_screen_s": (busy("vertex_screen"), "s/pass"),
            "bounds.sample_s": (sample_s, "s/pass"),
            "bounds.self_s": (self._sum("self_time", "bounds") * per, "s/pass"),
            "bounds.joints_per_s": (joints / sample_s if sample_s else 0.0, "1/s"),
            "bounds.td_boundary_s": (busy("td_boundary_sample"), "s/pass"),
            "core.mi_calls": (self._sum("calls", functions=("mutual_information_pair",)) * per,
                              "count/pass"),
            "core.mi_s": (busy("mutual_information_pair"), "s/pass"),
            "core.extend_s": (busy("extend_with_channel"), "s/pass"),
            "capacity.compute_s": (busy("compute_capacity"), "s/pass"),
            "capacity.iterations": (self._sum("count", functions=("compute_capacity",)) * per,
                                    "count/pass"),
            "capacity.self_s": (self._sum("self_time", functions=("analyze_channel",)) * per,
                                "s/pass"),
            "simplex.lp_calls": (self._sum("calls", functions=("lp_solve_max_coordinate",)) * per,
                                 "count/pass"),
            "simplex.lp_s": (busy("lp_solve_max_coordinate"), "s/pass"),
        }
