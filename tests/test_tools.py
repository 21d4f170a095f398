"""The command tables of `tools/equivalence.py` and the verdicts of
`tools/bench_pairs.py`.

Both tools run other checkouts in subprocesses; these tests load each
tool by path and check its tables and helpers alone, starting nothing.
"""

import importlib.util
from pathlib import Path

from scatopt import problems

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"_tools_{stem}", _TOOLS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


equivalence = _load("equivalence")
bench_pairs = _load("bench_pairs")


class TestEquivalenceTables:
    def test_problems_are_the_registry(self):
        assert equivalence.PROBLEMS == problems.PROBLEM_NAMES

    def test_every_exit_code_names_a_command(self):
        commands = {" ".join(argv) for argv in equivalence.COMMANDS}
        assert set(equivalence.EXIT_CODES) <= commands

    def test_every_config_is_used(self):
        used = {arg for argv in equivalence.COMMANDS for arg in argv}
        assert {f"{form}.json" for form in equivalence.CONFIGS} <= used


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]


class TestBenchPairsVerdict:
    def test_ten_of_ten_better_outside_the_iqr_is_a_gain(self):
        change = [0.8 * v for v in PARENT]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "gain"
        assert bench_pairs.verdict(change, PARENT, "higher", 0.25) == "gain"

    def test_eight_of_ten_better_is_no_gain(self):
        change = [0.8 * v for v in PARENT[:8]] + [1.01 * v for v in PARENT[8:]]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"

    def test_median_past_the_bound_is_over_bound(self):
        change = [1.3 * v for v in PARENT]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "over bound"
        change = [0.7 * v for v in PARENT]
        assert bench_pairs.verdict(PARENT, change, "higher", 0.25) == "over bound"

    def test_parent_iqr_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5]
        change = [1.1 * v for v in parent]
        assert bench_pairs.iqr_share(parent) > 0.25
        assert bench_pairs.verdict(parent, change, "lower", 0.25) == "unresolved"

    def test_ties_count_for_neither_side(self):
        change = PARENT[:1] + [0.8 * v for v in PARENT[1:]]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "gain"
        change = PARENT[:2] + [0.8 * v for v in PARENT[2:]]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"
