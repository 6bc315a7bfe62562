"""tools/ab.py's statistics and verdict rule, on synthetic samples; no
benchmark pass runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

A = [1.0 + 0.01 * i for i in range(10)]  # q3 - q1 = 0.055
LEVEL = [x + (0.001 if i % 2 else -0.001) for i, x in enumerate(A)]  # wins 5 of 10


def test_sign_test_p_values_are_exact():
    assert round(ab.sign_p(9, 1), 4) == 0.0107
    assert round(ab.sign_p(8, 2), 4) == 0.0547
    assert ab.sign_p(10, 0) == 1 / 1024
    assert ab.sign_p(0, 10) == 1.0
    assert ab.sign_p(0, 0) == 1.0


@pytest.mark.parametrize(
    "b, a2, better, verdict",
    [
        ([x - 0.2 for x in A], LEVEL, "lower", "gain"),
        ([x + 0.2 for x in A], LEVEL, "higher", "gain"),
        # 10 of 10 wins, but the medians differ by less than A's IQR
        ([x - 0.01 for x in A], LEVEL, "lower", "no change"),
        # the medians differ by more than A's IQR, but B wins 8 of 10
        ([x - 0.2 if i < 8 else x + 0.1 for i, x in enumerate(A)], LEVEL, "lower", "no change"),
        ([x * 1.3 for x in A], LEVEL, "lower", "worse"),
        ([x * 1.2 for x in A], LEVEL, "lower", "no change"),
        ([x * 0.7 for x in A], LEVEL, "higher", "worse"),
        # A' beats A in 10 of 10, or loses in 10 of 10: the host drifted
        ([x - 0.2 for x in A], [x - 0.001 for x in A], "lower", "void"),
        (LEVEL, [x + 0.001 for x in A], "lower", "void"),
        # a regression beyond the bound shows even though the host drifted
        ([x * 1.3 for x in A], [x + 0.001 for x in A], "lower", "worse"),
    ],
)
def test_each_verdict(b, a2, better, verdict):
    assert ab.judge(A, b, a2, better, 0.25)["verdict"] == verdict


@pytest.mark.parametrize(
    "b, verdict",
    [
        # A's q3 - q1 (0.055) is wider than 1% of its median: level reads unresolved
        (LEVEL, "unresolved"),
        ([x + 0.005 for x in A], "unresolved"),
        ([x * 1.02 for x in A], "worse"),
        ([x - 0.2 for x in A], "gain"),
        # every B run beats every A run, by less than A's q3 - q1
        ([0.999] * 10, "no change"),
    ],
)
def test_spread_wider_than_the_bound(b, verdict):
    assert ab.judge(A, b, LEVEL, "lower", 0.01)["verdict"] == verdict


def test_ties_count_for_neither_side():
    b = A[:5] + [x - 0.5 for x in A[5:]]
    res = ab.judge(A, b, list(A), "lower", 0.25)
    assert (res["b_wins"], res["b_losses"]) == (5, 0)
    assert res["p_b_better"] == 1 / 32
    assert (res["a2_wins"], res["a2_losses"], res["p_a2_better"]) == (0, 0, 1.0)
    assert res["verdict"] == "no change"
    assert res["A"] == {"median": 1.045, "q1": pytest.approx(1.0175), "q3": pytest.approx(1.0725)}


def test_workloads_metrics_directions_and_bounds_come_from_benchmark_json(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "x_s", "unit": "s", "better": "lower", "bound": 0.5},
            {"name": "y", "unit": "1/s", "better": "higher", "bound": 0.125},
        ],
    }))
    assert ab.declared(tmp_path) == (["w1", "w2"], {"x_s": ("lower", 0.5), "y": ("higher", 0.125)})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ab.declared() == (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]},
    )
