"""Cost functions from ``Fraction`` formulas, for the tests.

A cost's evaluator returns int units over its den; ``units_cost`` turns a
formula into one by multiplying each value by the given den and asserting
that the product is an int, so the formula's values stay the reference.
"""

from fractions import Fraction

from costlab.core import CostFn, cost_fn


def units_cost(name: str, horizon: int, value, den: int, **props) -> CostFn:
    """The cost c(x, s) = value(x, s), evaluated as value(x, s) * den units."""

    def ev(x: int, s: int) -> int:
        units = Fraction(value(x, s)) * den
        assert units.denominator == 1, f"{name}: {value(x, s)} at ({x}, {s}) is not over {den}"
        return units.numerator

    return cost_fn(name, horizon, ev, den=den, **props)
