"""The pure parts of tools/bench_pair.py: side order, quartiles, wins and ratios."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench_pair", Path(__file__).parents[1] / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def test_alternate_swaps_the_first_side_each_pair_and_shares_the_seed(capsys):
    calls = []
    times = {"parent": [4.0, 2.0, 3.0], "change": [2.0, 3.0, 1.0]}

    def fake_run(side, seed):
        calls.append((side, seed))
        return {"values": {"wall_s": times[side][seed - 5]}, "extra": side}

    order, runs = bench_pair.alternate(fake_run, "genealogy", pairs=3, seed0=5)
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6), ("parent", 7), ("change", 7)]
    assert [line.split()[0] for line in order] == [f"genealogy-{seed}-{side}" for side, seed in calls]
    assert [r["seed"] for r in runs["change"]] == [5, 6, 7]
    assert runs["parent"][1] == {"seed": 6, "values": {"wall_s": 2.0}, "extra": "parent"}
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_summary_gives_quartiles_wins_and_ratios_per_value():
    runs = {
        "parent": [{"values": {"wall_s": v, "probe": 1.0}} for v in (4.0, 2.0, 3.0, 5.0)],
        "change": [{"values": {"wall_s": v, "probe": 1.0}} for v in (2.0, 3.0, 1.0, 5.0)],
    }
    summary = bench_pair.summarize(runs)
    wall = summary["wall_s"]
    assert wall["parent"] == {"values": [4.0, 2.0, 3.0, 5.0], "median": 3.5, "q1": 2.75, "q3": 4.25, "iqr": 1.5}
    assert wall["change"]["values"] == [2.0, 3.0, 1.0, 5.0]
    assert (wall["change"]["q1"], wall["change"]["median"], wall["change"]["q3"]) == (1.75, 2.5, 3.5)
    assert wall["change_wins"] == 2  # a tie is no win
    assert wall["change_over_parent"] == [0.5, 1.5, 1.0 / 3.0, 1.0]
    assert wall["median_ratio"] == pytest.approx(0.75)
    assert wall["max_ratio"] == 1.5
    assert summary["probe"]["change_wins"] == 0 and summary["probe"]["median_ratio"] == 1.0


def test_quartiles_of_one_value_are_that_value():
    assert bench_pair.quartiles([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7, "iqr": 0.0}
