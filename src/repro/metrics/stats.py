"""Percentiles and cross-run aggregates with Student-t intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    lower = float(sorted_values[low])
    upper = float(sorted_values[high])
    # lerp as lower + (upper - lower) * weight, not the two-product
    # form: a*(1-w) + b*w underflows to 0.0 when a == b is denormal,
    # returning a value outside [lower, upper].
    return lower + (upper - lower) * weight


#: Two-sided 95% Student-t critical values by degrees of freedom.  The
#: experiment harness aggregates 2..30 seeded runs; beyond that the
#: normal approximation is within a percent.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value (normal beyond df=30)."""
    if degrees_of_freedom < 1:
        raise ValueError("need at least one degree of freedom")
    return _T_CRITICAL_95.get(degrees_of_freedom, 1.960)


@dataclass(frozen=True)
class Aggregate:
    """Cross-run aggregate of one metric over repeated seeded trials."""

    count: int
    mean: float
    stdev: float
    ci95: float          #: half-width of the 95% confidence interval
    minimum: float
    maximum: float

    def render(self) -> str:
        """Render as ``mean ± ci`` text."""
        return f"{self.mean:.4g} ± {self.ci95:.3g} (n={self.count})"

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON results files."""
        return {
            "n": self.count, "mean": self.mean, "stdev": self.stdev,
            "ci95": self.ci95, "min": self.minimum, "max": self.maximum,
        }


def aggregate(values: Sequence[float]) -> Aggregate:
    """Mean/stddev/95%-CI of repeated trials (the harness's aggregator).

    A single trial yields a zero-width interval rather than an error, so
    one-seed smoke sweeps still produce a well-formed results file.
    """
    if not values:
        raise ValueError("cannot aggregate an empty sample")
    data = [float(v) for v in values]
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
        stdev = math.sqrt(variance)
        ci95 = t_critical_95(count - 1) * stdev / math.sqrt(count)
    else:
        stdev = 0.0
        ci95 = 0.0
    return Aggregate(count=count, mean=mean, stdev=stdev, ci95=ci95,
                     minimum=min(data), maximum=max(data))
