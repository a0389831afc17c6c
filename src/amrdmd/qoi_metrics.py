"""Quantities of interest on snapshot series: the domain-averaged total
population of the s, e, i, r, d compartments, normalized by its first
snapshot, and its CSV output.
"""

from __future__ import annotations

import math
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


def population_term(snapshot) -> tuple:
    """(time, total, exponent) of one snapshot (time, mesh, {name: values}):
    its total population is total * 2**exponent, total integrated in units
    of the snapshot's largest |value| (fem.unit_scale), so no sum overflows."""
    time, msh, fields = snapshot
    scale = fem.unit_scale(max((fem.inf_norm(fields[c]) for c in COMPARTMENTS
                                if c in fields), default=0.0))
    total = total_population(msh, {c: scale * fields[c] for c in COMPARTMENTS
                                   if c in fields})
    return time, total, 1 - math.frexp(scale)[1]


def population_series(terms) -> QoiSeries:
    """Total population over the population_term of each snapshot of a
    series, taken in one pass, normalized by its first value. Each total is
    rescaled exactly to the units of the series' largest |value|, so the
    values are those of the whole series integrated in those units, bit for
    bit unless a scaled product is subnormal."""
    terms = list(terms)
    if not terms:
        raise InvalidArgumentError("empty series")
    times, totals, exponents = zip(*terms)
    top = max(exponents)
    values = np.array([math.ldexp(t, e - top) for t, e in zip(totals, exponents)])
    if values[0] == 0:
        raise InvalidArgumentError("first-snapshot population is zero")
    return QoiSeries(times=times, values=values / values[0])


def save_qoi_csv(series: QoiSeries, path) -> None:
    """CSV output with header time,value: each time as its shortest exact
    decimal, each value with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("time,value\n")
        fh.writelines(f"{fraction_to_decimal(t)},{v:.17g}\n"
                      for t, v in zip(series.times, series.values.tolist()))
