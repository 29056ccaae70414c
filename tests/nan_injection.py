"""A fault for the numeric sweep: NaN from the column evaluator at one sample
point of one Horner plan, and nowhere else.  A single NaN among finite
drifts is what `max` loses (it compares False both ways), so the tests that
use it show that the sweep still reports NaN."""

import math

from willmore import sweep


def inject_one_nan(monkeypatch, point: tuple[float, ...], power: int) -> list[int]:
    """Patch `sweep` so that the plan of the coefficient of lambda^power gives
    NaN at `point`; returns the record of the chunk positions it was put at."""
    plans, hits = [], []
    horner_plan, evaluate = sweep.horner_plan, sweep.eval_plan_columns

    def planned(coeff):
        plans.append(horner_plan(coeff))
        return plans[-1]

    def injected(plan, columns):
        values = evaluate(plan, columns)
        if plan is plans[power]:
            for i, coords in enumerate(zip(*columns)):
                if coords == point:
                    values[i] = math.nan
                    hits.append(i)
        return values

    monkeypatch.setattr(sweep, "horner_plan", planned)
    monkeypatch.setattr(sweep, "eval_plan_columns", injected)
    return hits
