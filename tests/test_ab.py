"""``scripts/ab.py``'s figures and its claim rule, on canned runs."""

import importlib.util
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
OP = "season-dry.op_p50_ref_s"
RATE = "season-dry.sim_days_per_ref_s"
# median 1.0, IQR 0.015
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def figures(ab, metric, unit, **sides):
    """``compare``'s figures for one metric, from one perfbench summary per
    run of each side."""
    return ab.compare({
        side: [{"metrics": {metric: {"value": v, "unit": unit}}}
               for v in values]
        for side, values in sides.items()})[metric]


def test_gain_in_nine_of_ten_pairs_past_the_iqr_meets_the_rule(ab):
    f = figures(ab, OP, "s", parent=PARENT, change=[0.90] * 9 + [1.05])
    assert (f["pairs_won"], f["pairs"], f["claim_met"]) == (9, 10, True)
    assert (f["parent_median"], f["change_median"]) == (1.0, 0.90)
    assert f["parent_iqr"] == pytest.approx(0.015)
    assert f["delta_pct"] == pytest.approx(-10.0)
    assert "null_median" not in f and "beats_null" not in f


@pytest.mark.parametrize("change, won", [
    ([0.90] * 8 + [1.05] * 2, 8),
    ([v - 0.001 for v in PARENT], 10),  # every pair, inside the IQR
])
def test_eight_pairs_or_a_move_inside_the_iqr_fails_the_rule(ab, change,
                                                              won):
    f = figures(ab, OP, "s", parent=PARENT, change=change)
    assert (f["pairs_won"], f["claim_met"]) == (won, False)


@pytest.mark.parametrize("null, beaten", [([101.0] * 10, True),
                                          ([110.0] * 10, False)])
def test_higher_is_better_against_the_parent_and_the_null(ab, null, beaten):
    parent = [100.0 + k % 3 for k in range(10)]
    f = figures(ab, RATE, "1/s", parent=parent, change=[110.0] * 10,
                null=null)
    assert (f["better"], f["pairs_won"], f["claim_met"]) == \
        ("higher", 10, True)
    assert (f["null_median"], f["beats_null"]) == (null[0], beaten)
    f = figures(ab, RATE, "1/s", parent=parent, change=[90.0] * 10)
    assert (f["pairs_won"], f["claim_met"]) == (0, False)
