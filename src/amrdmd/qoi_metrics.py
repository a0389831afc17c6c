"""Quantities of interest on snapshot series: the domain-averaged total
population of the s, e, i, r, d compartments, normalized by its first
snapshot, and its CSV output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fem
from .errors import InvalidArgumentError
from .mesh import fraction_to_decimal

COMPARTMENTS = ("s", "e", "i", "r", "d")


@dataclass
class QoiSeries:
    """Values at exact times: a tuple of Fractions (floats convert exactly)."""

    times: tuple
    values: np.ndarray

    def __post_init__(self):
        self.times = tuple(map(Fraction, self.times))
        self.values = np.asarray(self.values, dtype=float)
        if (len(self.times),) != self.values.shape:
            raise InvalidArgumentError("times and values lengths differ")


def total_population(mesh, fields: dict) -> float:
    """Domain-averaged sum of the s, e, i, r, d compartments {name: values}."""
    missing = [c for c in COMPARTMENTS if c not in fields]
    if missing:
        raise InvalidArgumentError(f"missing compartments: {missing}")
    total = sum(fem.integrate(mesh, fields[c]) for c in COMPARTMENTS)
    return total / mesh.total_measure()


def population_series(snapshots) -> QoiSeries:
    """Total population over snapshots [(time, mesh, {name: values})],
    normalized by its first value. The fields are integrated in units of
    their largest |value|, a power of two, so no sum overflows."""
    top = max((fem.inf_norm(fields[c]) for _, _, fields in snapshots
               for c in COMPARTMENTS if c in fields), default=0.0)
    scale = fem.unit_scale(top)
    values = np.array([total_population(msh, {c: scale * v for c, v in fields.items()})
                       for _, msh, fields in snapshots])
    if values.size == 0:
        raise InvalidArgumentError("empty series")
    ref = values[0]
    if ref == 0:
        raise InvalidArgumentError("first-snapshot population is zero")
    return QoiSeries(times=[t for t, _, _ in snapshots], values=values / ref)


def save_qoi_csv(series: QoiSeries, path) -> None:
    """CSV output with header time,value: each time as its shortest exact
    decimal, each value with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("time,value\n")
        fh.writelines(f"{fraction_to_decimal(t)},{v:.17g}\n"
                      for t, v in zip(series.times, series.values.tolist()))
