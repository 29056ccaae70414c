"""A fault for the numeric sweep: NaN from the column evaluator at one sample
point of one coefficient's float terms, and nowhere else.  The coefficients
are counted in the order `float_terms` converts them: each distinct block's,
lowest lambda-power first, then the product's if the blocks drift.  A single NaN
among finite drifts is what `max` loses (it compares False both ways), so
the tests that use it show that the sweep still reports NaN."""

import math

from willmore import sweep


def inject_one_nan(monkeypatch, point: tuple[float, ...], index: int) -> list[int]:
    """Patch `sweep` so that the terms of the coefficient converted at `index`
    give NaN at `point`; returns the record of the chunk positions it was put at."""
    tables, hits = [], []
    float_terms, evaluate = sweep.float_terms, sweep.eval_terms

    def converted(*args):
        tables.append(float_terms(*args))
        return tables[-1]

    def injected(terms, powers, size):
        values = evaluate(terms, powers, size)
        if terms is tables[index]:
            for i, coords in enumerate(zip(*(ladder[1] for ladder in powers))):
                if coords == point:
                    values[i] = math.nan
                    hits.append(i)
        return values

    monkeypatch.setattr(sweep, "float_terms", converted)
    monkeypatch.setattr(sweep, "eval_terms", injected)
    return hits
