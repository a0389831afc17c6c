"""Quantities of interest on fields and snapshot series: conserved totals,
threshold front position, and center of mass of a thresholded region.

Threshold geometry uses exact linear cuts of each element against the
superlevel set {u >= threshold}, so the QoIs vary continuously with the
field instead of jumping at nodal crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import InvalidArgumentError, UndefinedRegionError
from .fem import FeField

COMPARTMENTS = ("s", "e", "i", "r", "d")


@dataclass
class QoiSeries:
    times: np.ndarray
    values: np.ndarray
    kind: str
    normalization: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise InvalidArgumentError("times and values lengths differ")


def total_population(fields: dict[str, FeField]) -> float:
    """Domain-averaged sum of the s, e, i, r, d compartments."""
    missing = [c for c in COMPARTMENTS if c not in fields]
    if missing:
        raise InvalidArgumentError(f"missing compartments: {missing}")
    mesh = fields["s"].mesh
    for c in COMPARTMENTS:
        if fields[c].mesh is not mesh:
            raise InvalidArgumentError("compartments live on different meshes")
    total = sum(fem.integrate(fields[c]) for c in COMPARTMENTS)
    return total / mesh.total_measure()


def population_series(snapshots) -> QoiSeries:
    """Total population over snapshots [(time, mesh, {name: values})],
    normalized by its first value."""
    values = np.array([total_population({c: FeField(msh, fields[c], name=c)
                                         for c in COMPARTMENTS if c in fields})
                       for _, msh, fields in snapshots])
    if values.size == 0:
        raise InvalidArgumentError("empty series")
    ref = values[0]
    if ref == 0:
        raise InvalidArgumentError("first-snapshot population is zero")
    return QoiSeries(times=[float(t) for t, _, _ in snapshots],
                     values=values / ref, kind="total_population",
                     normalization=ref)


def front_position(fld: FeField, threshold: float, axis: int = 0) -> float:
    """Largest axis-coordinate reached by the superlevel set {u >= threshold}.

    Each element contributes its vertices above threshold and the linear
    crossing points along its edges; if nothing reaches the threshold the
    domain minimum along the axis is returned.
    """
    mesh = fld.mesh
    if not 0 <= axis < mesh.dim:
        raise InvalidArgumentError(f"axis {axis} out of range for dim {mesh.dim}")
    coords = mesh.nodes[:, axis]
    vals = fld.values
    best = -np.inf
    above = vals >= threshold
    if above.any():
        best = float(coords[above].max())
    k = mesh.dim + 1
    el = mesh.elements
    for a_loc in range(k):
        for b_loc in range(a_loc + 1, k):
            va = vals[el[:, a_loc]]
            vb = vals[el[:, b_loc]]
            cross = (va - threshold) * (vb - threshold) < 0
            if not cross.any():
                continue
            t = (threshold - va[cross]) / (vb[cross] - va[cross])
            xa = coords[el[cross, a_loc]]
            xb = coords[el[cross, b_loc]]
            best = max(best, float((xa + t * (xb - xa)).max()))
    if best == -np.inf:
        return float(coords.min())
    return best


def _clip_segment(x0, x1, v0, v1, threshold):
    """Length and first moment of {v >= threshold} on a 1-d element."""
    if v0 >= threshold and v1 >= threshold:
        lo, hi = x0, x1
    elif v0 < threshold and v1 < threshold:
        return 0.0, 0.0
    else:
        t = (threshold - v0) / (v1 - v0)
        xc = x0 + t * (x1 - x0)
        (lo, hi) = (xc, x1) if v1 >= threshold else (x0, xc)
    return hi - lo, 0.5 * (hi * hi - lo * lo)


def _clip_triangle(pts, vals, threshold):
    """Area and centroid-weighted area of {v >= threshold} on a triangle.

    The superlevel set of a linear function on a triangle is a convex
    polygon; walk the boundary emitting kept vertices and edge crossings.
    """
    poly = []
    for i in range(3):
        j = (i + 1) % 3
        if vals[i] >= threshold:
            poly.append(pts[i])
        if (vals[i] - threshold) * (vals[j] - threshold) < 0:
            t = (threshold - vals[i]) / (vals[j] - vals[i])
            poly.append(pts[i] + t * (pts[j] - pts[i]))
    if len(poly) < 3:
        return 0.0, np.zeros(2)
    poly = np.asarray(poly)
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    if area == 0.0:
        return 0.0, np.zeros(2)
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return area, np.array([cx, cy])


def region_center_of_mass(fld: FeField, threshold: float) -> np.ndarray:
    """Centroid of the region {u >= threshold}, from exact elementwise cuts."""
    mesh = fld.mesh
    total = 0.0
    moment = np.zeros(mesh.dim)
    for e in range(mesh.n_elems):
        idx = mesh.elements[e]
        vals = fld.values[idx]
        if vals.max() < threshold:
            continue
        pts = mesh.nodes[idx]
        if mesh.dim == 1:
            length, m1 = _clip_segment(pts[0, 0], pts[1, 0], vals[0], vals[1],
                                       threshold)
            total += length
            moment[0] += m1
        else:
            area, centroid = _clip_triangle(pts, vals, threshold)
            total += area
            moment += area * centroid
    if total <= 0.0:
        raise UndefinedRegionError(
            f"region u >= {threshold} is empty for field {fld.name!r}")
    return moment / total


def save_qoi_csv(series: QoiSeries, path) -> None:
    """CSV output with header time,value and 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("time,value\n")
        fh.writelines("%.17g,%.17g\n" % r for r in
                      zip(series.times.tolist(), series.values.tolist()))
