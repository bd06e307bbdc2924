"""Loss formulas, seasonal averaging, and the normalized risk metric."""

import math

import pytest

from gridfire.errors import InvalidInputError
from gridfire.risk import CostParams, rank_lines, seasonal_average

UNIT = CostParams(cbe=1.0, cbl=1.0)


def metrics(wfl_by_line):
    """{line: metric} of lines whose one-season loss is all acres, at $1 an acre."""
    recs = rank_lines({j: [v] for j, v in wfl_by_line.items()},
                      {j: [0.0] for j in wfl_by_line}, UNIT)
    return {r.line_id: r.metric for r in recs}


def test_cost_params_positive():
    with pytest.raises(InvalidInputError):
        CostParams(cbe=0.0, cbl=200_000.0)
    with pytest.raises(InvalidInputError):
        CostParams(cbe=20_000.0, cbl=-1.0)


def test_seasonal_average_examples():
    assert abs(seasonal_average([322.1, 3285.0, 8230.4, 5107.3]) - 4236.2) < 0.05
    assert abs(seasonal_average([184.20, 225.75, 225.75, 225.75]) - 215.36) < 0.005
    assert seasonal_average([7.5, 7.5]) == 7.5
    with pytest.raises(InvalidInputError):
        seasonal_average([])


def test_wfl_sum():
    acres = {1: [0.0], 2: [84_724_000.0], 3: [5.0]}
    miles = {1: [0.0], 2: [43_072_000.0], 3: [0.0]}
    wfl = {r.line_id: r.wfl for r in rank_lines(acres, miles, UNIT)}
    assert wfl == {1: 0.0, 2: 127_796_000.0, 3: 5.0}
    with pytest.raises(InvalidInputError):
        rank_lines({1: [-1.0], 2: [1.0]}, {1: [0.0], 2: [0.0]}, UNIT)


def test_risk_metric_basics():
    assert metrics({6: 42.0}) == {6: 1.0}
    assert metrics({1: 50.0, 2: 100.0, 3: 0.0}) == {2: 1.0, 1: 0.5, 3: 0.0}
    with pytest.raises(InvalidInputError, match="every line has zero loss"):
        metrics({1: 0.0, 2: 0.0})
    with pytest.raises(InvalidInputError, match="no lines to rank"):
        metrics({})
    with pytest.raises(InvalidInputError, match="line 1"):
        metrics({1: -5.0})


def test_risk_metric_scale_invariance():
    base = {1: 10.0, 2: 250.0, 3: 97.5, 4: 250.0}
    m0 = metrics(base)
    for lam in (0.1, 10.0, 1e6):
        m = metrics({k: lam * v for k, v in base.items()})
        for k in base:
            assert m[k] == pytest.approx(m0[k], rel=1e-12)


@pytest.mark.parametrize("bad", [math.inf, -1.0, math.nan])
@pytest.mark.parametrize("table", ["acres", "miles"])
def test_rank_lines_refuses_a_bad_season_value_naming_its_line(bad, table):
    acres = {1: [1.0, 2.0], 2: [3.0, 4.0]}
    miles = {1: [1.0, 1.0], 2: [1.0, 1.0]}
    (acres if table == "acres" else miles)[2][1] = bad
    with pytest.raises(InvalidInputError, match=f"^line 2: season {table} .* must be finite and >= 0$"):
        rank_lines(acres, miles, CostParams())


def test_rank_lines_order_and_records():
    costs = CostParams(cbe=20_000.0, cbl=200_000.0)
    acres = {1: [100.0, 100.0], 2: [300.0, 100.0], 3: [0.0, 0.0]}
    miles = {1: [1.0, 1.0], 2: [1.0, 1.0], 3: [0.0, 0.0]}
    recs = rank_lines(acres, miles, costs)
    assert [r.line_id for r in recs] == [2, 1, 3]
    assert recs[0].metric == 1.0
    assert recs[0].wfl == recs[0].lbe + recs[0].lbl
    assert recs[2].wfl == 0.0 and recs[2].metric == 0.0
    # per-season inputs are carried through
    assert recs[1].season_acres == (100.0, 100.0)

    with pytest.raises(InvalidInputError):
        rank_lines(acres, {1: [1.0, 1.0]}, costs)


def test_rank_lines_refuses_losses_that_overflow():
    with pytest.raises(InvalidInputError, match="line 2: loss lbe inf .*costs.cbe_per_acre"):
        rank_lines({1: [1.0], 2: [1e10]}, {1: [0.0], 2: [1.0]}, CostParams(cbe=1e300, cbl=1.0))
    # each part is finite, their sum is not
    with pytest.raises(InvalidInputError, match="line 1: loss lbe 1.5e"):
        rank_lines({1: [1e8]}, {1: [1e8]}, CostParams(cbe=1.5e300, cbl=1.5e300))


def test_rank_monotone_in_acres():
    costs = CostParams(cbe=20_000.0, cbl=200_000.0)
    miles = {j: [2.0] for j in (1, 2, 3)}
    base = {1: [50.0], 2: [80.0], 3: [100.0]}
    recs0 = rank_lines(base, miles, costs)
    pos0 = [r.line_id for r in recs0].index(1)
    wfl0 = {r.line_id: r.wfl for r in recs0}

    bumped = {1: [120.0], 2: [80.0], 3: [100.0]}
    recs1 = rank_lines(bumped, miles, costs)
    pos1 = [r.line_id for r in recs1].index(1)
    wfl1 = {r.line_id: r.wfl for r in recs1}
    assert wfl1[1] > wfl0[1]
    assert pos1 <= pos0
    assert wfl1[2] == wfl0[2] and wfl1[3] == wfl0[3]
