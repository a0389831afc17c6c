"""Built-in snapshot generators.

Two families: a 1-d SEIRD reaction-diffusion solver with adaptive mesh
refinement/coarsening that yields its snapshots on their adaptive meshes as
it computes them, and a 2-d indicator-projection demonstration.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fem, l2projection
from .errors import ConfigError, InvalidArgumentError, StepError
from .fem import cg_solve
from .mesh import (BARY_TOL, RefinementPlan, SimplicialMesh, _plain, band_layout,
                   barycentric, build_interval_mesh,
                   build_structured_triangle_mesh, refine, uniform_refine)

COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
PICARD_TOL = 1e-8       # relative update that ends the Picard loop
PICARD_MAX = 25         # Picard iterations before a step fails
# simulate refuses a run of more time steps, snapshots or reference-mesh
# elements, before it creates any output. No snapshot series is held in
# memory: the snapshot limit bounds the two stores and the adaptive spill
# file (8 bytes per value) on disk
MAX_STEPS = 10 ** 7
MAX_SNAPSHOTS = 10 ** 5
MAX_ELEMENTS = 10 ** 8


@dataclass
class SeirdParams:
    """Rates and discretization for the 1-d SEIRD model. Defaults follow
    the hypothetical-outbreak benchmark configuration."""

    beta_i: float = 0.375       # symptomatic transmission, 1/day/persons
    beta_e: float = 0.375       # asymptomatic transmission, 1/day/persons
    alpha: float = 0.09375      # incubation, 1/day
    gamma_e: float = 0.125      # asymptomatic recovery, 1/day
    gamma_i: float = 0.03125    # symptomatic recovery, 1/day
    delta: float = 0.0046875    # mortality, 1/day
    nu_s: float = 3.75e-5       # diffusion, km^2/persons/day
    nu_e: float = 7.5e-4
    nu_i: float = 7.5e-11
    nu_r: float = 3.75e-5
    A_e: float = 0.0            # Allee threshold, persons
    dt: float = 0.25            # time step, days
    dt_o: float = 0.25          # output interval, days
    t_end: float = 44.0         # final time, days

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise InvalidArgumentError("model parameters must be finite")
        rates = [self.beta_i, self.beta_e, self.alpha, self.gamma_e,
                 self.gamma_i, self.delta, self.nu_s, self.nu_e, self.nu_i,
                 self.nu_r, self.A_e]
        if any(v < 0 for v in rates):
            raise InvalidArgumentError("model rates must be nonnegative")
        if self.dt <= 0 or self.t_end <= 0:
            raise InvalidArgumentError("dt and t_end must be positive")
        for name, value in (("dt_o", self.dt_o), ("t_end", self.t_end)):
            j = Fraction(str(value)) / Fraction(str(self.dt))   # the decimals, exactly
            if j.denominator != 1 or j < 1:
                raise InvalidArgumentError(f"{name} must be an integer multiple of dt")

    @property
    def output_every(self) -> int:
        return int(Fraction(str(self.dt_o)) / Fraction(str(self.dt)))

    @property
    def n_steps(self) -> int:
        return int(Fraction(str(self.t_end)) / Fraction(str(self.dt)))


@dataclass
class AmrPolicy:
    remesh_every: int = 4        # steps between refinement passes
    refine_fraction: float = 0.3
    coarsen_fraction: float = 0.05
    max_level: int = 2
    initial_uniform_levels: int = 2

    def __post_init__(self):
        if self.max_level < 0 or self.initial_uniform_levels < 0:
            raise InvalidArgumentError(
                "max_level and initial_uniform_levels must be >= 0")
        if not (0 <= self.refine_fraction <= 1 and 0 <= self.coarsen_fraction <= 1):
            raise InvalidArgumentError("fractions must lie in [0, 1]")
        if self.refine_fraction + self.coarsen_fraction > 1:
            raise InvalidArgumentError("refine + coarsen fractions exceed 1")
        if self.remesh_every < 1:
            raise InvalidArgumentError("remesh_every must be >= 1")


# ---------------------------------------------------------------------------
# run configuration: "key = value" lines, '#' comments, unknown keys error

_PARAM_FIELDS = {f.name: f for f in fields(SeirdParams)}
_POLICY_FIELDS = {f.name: f for f in fields(AmrPolicy)}
_INT_KEYS = {"remesh_every", "max_level", "initial_uniform_levels", "n_elems"}


def parse_run_config(path) -> tuple[SeirdParams, AmrPolicy, int]:
    params_kwargs = {}
    policy_kwargs = {}
    n_elems = 125
    seen = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value' on line {line_no}: {raw!r}",
                              line_no=line_no)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if seen.setdefault(key, line_no) != line_no:
            raise ConfigError(f"duplicate key {key!r} on line {line_no} "
                              f"(first set on line {seen[key]})", line_no=line_no)
        try:
            if not _plain(value):       # the number rule of the table files
                raise ValueError(f"{value!r} is not plain ASCII without '_'")
            if key == "n_elems":
                n_elems = int(value)
            elif key in _PARAM_FIELDS:
                params_kwargs[key] = float(value)
            elif key in _POLICY_FIELDS:
                policy_kwargs[key] = (int(value) if key in _INT_KEYS
                                      else float(value))
            else:
                raise ConfigError(f"unknown key {key!r} on line {line_no}",
                                  line_no=line_no)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} on line {line_no}: {exc}",
                              line_no=line_no) from exc
    if not seen:
        raise ConfigError("configuration file is empty", line_no=1)
    try:
        params = SeirdParams(**params_kwargs)
        policy = AmrPolicy(**policy_kwargs)
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if params.n_steps > MAX_STEPS:
        raise ConfigError(f"t_end = {params.t_end:g} with dt = {params.dt:g} is "
                          f"{params.n_steps} steps, more than {MAX_STEPS}")
    n_snapshots = params.n_steps // params.output_every + 1
    if n_snapshots > MAX_SNAPSHOTS:
        raise ConfigError(f"t_end = {params.t_end:g} with dt_o = {params.dt_o:g} is "
                          f"{n_snapshots} snapshots, more than {MAX_SNAPSHOTS}")
    if n_elems < 1:
        raise ConfigError(f"n_elems must be >= 1, got {n_elems}")
    # 2**64 exceeds the ceiling, so a larger exponent changes nothing
    elements = n_elems * 2 ** min(policy.initial_uniform_levels, 64)
    if elements > MAX_ELEMENTS:
        raise ConfigError(f"n_elems = {n_elems} with initial_uniform_levels = "
                          f"{policy.initial_uniform_levels} is {elements} "
                          f"elements, more than {MAX_ELEMENTS}")
    return params, policy, n_elems


@dataclass
class SeirdState:
    mesh: SimplicialMesh
    fields: dict
    prev_fields: dict | None
    time: Fraction              # k * dt after k steps, exactly


def seird_initial_conditions(mesh: SimplicialMesh) -> dict[str, np.ndarray]:
    """Nodal initial data: a large susceptible population centered near
    x = 0.35 and a small exposed cluster near x = 0.75."""
    if mesh.dim != 1:
        raise InvalidArgumentError("SEIRD initial conditions are 1-d only")
    x = mesh.nodes[:, 0]
    s0 = (np.exp(-((x + 1.0) ** 4))
          + np.exp(-((x - 0.35) ** 2) / 1e-2)
          + (np.exp(-((x - 0.62) ** 4) / 1e-5)
             + np.exp(-((x - 0.52) ** 4) / 1e-5)
             + np.exp(-((x - 0.42) ** 4) / 1e-5)) / 8.0
          + np.exp(-((x - 0.735) ** 4) / 1e-5) / 4.0)
    e0 = np.exp(-((x - 0.75) ** 4) / 1e-5) / 20.0
    return {"s": s0, "e": e0, **{c: np.zeros_like(x) for c in ("i", "r", "d", "c")}}


# ---------------------------------------------------------------------------
# 1-d assembly in the band layout of the mesh (coordinate order, element k
# joins positions k and k + 1): every SEIRD system is one operator
# (kappa u', v') + (r u, v) with nodal P1 kappa and r, built from the exact
# element formulas; the BDF term c0 M is the constant part of r

def _operator(h, kappa, react, pin):
    """SparseSpd of (kappa u', v') + (react u, v) on the chain of elements
    of lengths h, kappa and react in coordinate order.

    kappa enters through its element mean (exact for the constant gradients
    of P1), react through the weighted mass h/12 [[3 r1 + r2, r1 + r2],
    [r1 + r2, r1 + 3 r2]], exact for P1 react. The row and column of
    position pin, when given, are those of the identity."""
    r1 = react[:-1]
    r2 = react[1:]
    a = 0.5 * (kappa[:-1] + kappa[1:]) / h
    return fem.SparseSpd.from_chain(h * (3 * r1 + r2) / 12.0 + a,
                                    h * (r1 + 3 * r2) / 12.0 + a,
                                    h * (r1 + r2) / 12.0 - a, pin)


def _solve(A, rhs, pin):
    """Solve A x = rhs with the Dirichlet value 0 pinned at position pin."""
    if pin is not None:
        rhs = rhs.copy()
        rhs[pin] = 0.0
    return cg_solve(A, rhs)


def _product_load(h, factors):
    """Load vector (f g k, phi_j) of three nodal P1 factors on the chain of
    elements of lengths h, in closed form from int lam0^a lam1^b = h a! b! /
    (a + b + 1)! on an element (Eisenberg and Malvern, IJNME 1973). With end
    values f0, f1 (likewise g, k), c30 = f0 g0 k0, c21 = f0 g0 k1 + f0 g1 k0
    + f1 g0 k0, c12 = f0 g1 k1 + f1 g0 k1 + f1 g1 k0 and c03 = f1 g1 k1, the
    left node gets h/120 (24 c30 + 6 c21 + 4 c12 + 6 c03) and the right node
    h/120 (6 c30 + 4 c21 + 6 c12 + 24 c03)."""
    f, g, k = factors
    fg0, fg1 = f[:-1] * g[:-1], f[1:] * g[1:]
    fgx = f[:-1] * g[1:] + f[1:] * g[:-1]
    c30, c03 = fg0 * k[:-1], fg1 * k[1:]
    c21, c12 = fg0 * k[1:] + fgx * k[:-1], fgx * k[1:] + fg1 * k[:-1]
    w = h / 120.0
    rhs = np.zeros(h.size + 1)
    rhs[:-1] += w * (24.0 * c30 + 6.0 * c21 + 4.0 * c12 + 6.0 * c03)
    rhs[1:] += w * (6.0 * c30 + 4.0 * c21 + 6.0 * c12 + 24.0 * c03)
    return rhs


def step(state: SeirdState, params: SeirdParams,
         dirichlet_right: bool = True) -> SeirdState:
    """Advance one time step: P1 Galerkin in space, BDF2 in time (backward
    Euler on the first step), Picard iteration on the lagged nonlinear
    couplings (products s*i, s*e and the population-weighted diffusion)
    until the largest relative update is <= PICARD_TOL, else StepError after
    PICARD_MAX iterations; StepError also when a system loses its positive
    diagonal. dirichlet_right pins all fields to 0 at x = 1. A mesh whose
    elements leave a gap is an InvalidArgumentError.

    The step runs in the band layout of the mesh: the fields are permuted
    into coordinate order once on entry and back once on return."""
    mesh = state.mesh
    order, h = band_layout(mesh)
    if not h.all():
        raise InvalidArgumentError("the elements do not form one chain of "
                                   "coordinate neighbours")
    n = mesh.n_nodes
    dt = params.dt
    M = fem.chain_mass(h)
    pin = n - 1 if dirichlet_right else None
    u = np.stack([state.fields[c] for c in COMPARTMENTS])

    if state.prev_fields is None:
        c0, x = 1.0 / dt, u
    else:
        up = np.stack([state.prev_fields[c] for c in COMPARTMENTS])
        c0, x = 1.5 / dt, 2.0 * u - 0.5 * up
    hist = M.dot(x[:, order]) / dt

    ones = np.ones(n)
    # the d and c systems are c0 M alone, which Picard cannot change
    A_dc = _operator(h, np.zeros(n), c0 * ones, pin)
    nu = np.array([params.nu_s, params.nu_e, params.nu_i, params.nu_r])[:, None]

    lag = u[:, order]
    try:
        for iteration in range(PICARD_MAX):
            s, e, i, r = lag[:4]
            n_pop = s + e + i + r
            if params.A_e > 0:
                sigma = 1.0 - params.A_e / np.maximum(n_pop, 1e-12)
            else:
                sigma = ones
            kappa = nu * n_pop
            new = np.empty_like(lag)

            react_s = sigma * (params.beta_i * i + params.beta_e * e)
            new[0] = _solve(_operator(h, kappa[0], c0 + react_s, pin), hist[0], pin)

            react_e = (params.alpha + params.gamma_e) * ones \
                - params.beta_e * sigma * new[0]
            src_e = _product_load(h, (params.beta_i * sigma, new[0], i))
            new[1] = _solve(_operator(h, kappa[1], c0 + react_e, pin),
                            hist[1] + src_e, pin)
            Me = M.dot(new[1])

            react_i = (params.gamma_i + params.delta) * ones
            new[2] = _solve(_operator(h, kappa[2], c0 + react_i, pin),
                            hist[2] + params.alpha * Me, pin)
            Mi = M.dot(new[2])

            new[3] = _solve(_operator(h, kappa[3], c0 * ones, pin),
                            hist[3] + params.gamma_e * Me + params.gamma_i * Mi, pin)
            new[4] = _solve(A_dc, hist[4] + params.delta * Mi, pin)
            new[5] = _solve(A_dc, hist[5] + params.alpha * Me, pin)

            scale = np.maximum(np.max(np.abs(new), axis=1), 1e-14)
            change = float(np.max(np.max(np.abs(new - lag), axis=1) / scale))
            lag = new
            if change <= PICARD_TOL:
                break
        else:
            raise StepError(
                f"Picard iteration stalled at t={float(state.time + dt):.4g} "
                f"(last update {change:.3e} > {PICARD_TOL:g})")
    except InvalidArgumentError as exc:
        # coefficients computed by the step, not given by the caller, made a
        # system indefinite (a large A_e drives sigma far below zero) or
        # overflowed (a rate of 1e308)
        raise StepError(f"step to t={float(state.time + dt):.4g} failed: {exc}") from exc

    out = np.empty_like(new)
    out[:, order] = new
    return SeirdState(mesh=mesh, fields=dict(zip(COMPARTMENTS, out)),
                      prev_fields=dict(zip(COMPARTMENTS, u)),
                      time=state.time + Fraction(str(dt)))


# ---------------------------------------------------------------------------
# adaptive loop

def build_amr_plan(state: SeirdState, policy: AmrPolicy) -> RefinementPlan:
    """Rank elements by the flux-jump indicator summed over s, e, i, largest
    first and ties by id; flag the top refine_fraction for refinement and the
    bottom coarsen_fraction for coarsening, capped at max_level. refine
    leaves alone the flags it cannot honour."""
    mesh = state.mesh
    score = np.zeros(mesh.n_elems)
    for c in ("s", "e", "i"):
        score += fem.flux_jump_indicator(mesh, state.fields[c])
    order = np.lexsort((np.arange(mesh.n_elems), -score))
    n_ref = int(policy.refine_fraction * mesh.n_elems)
    n_coar = int(policy.coarsen_fraction * mesh.n_elems)
    return RefinementPlan(refine=frozenset(order[:n_ref].tolist()),
                          coarsen=frozenset(order[mesh.n_elems - n_coar:].tolist()),
                          max_level=policy.max_level)


def remesh_state(state: SeirdState, policy: AmrPolicy) -> SeirdState:
    """Adapt the mesh by build_amr_plan and interpolate every field, and
    every previous-step field, onto the new nodes with one point location."""
    plan = build_amr_plan(state, policy)
    new_mesh = refine(state.mesh, plan)
    if new_mesh is state.mesh:
        return state
    stack = np.stack([*state.fields.values(), *(state.prev_fields or {}).values()])
    moved = fem.evaluate_many(state.mesh, stack, new_mesh.nodes)
    fields = dict(zip(state.fields, moved))
    prev = None
    if state.prev_fields is not None:
        prev = dict(zip(state.prev_fields, moved[len(fields):]))
    return SeirdState(mesh=new_mesh, fields=fields, prev_fields=prev, time=state.time)


def run_seird_amr(params: SeirdParams, policy: AmrPolicy,
                  n_base_elements: int = 125):
    """Run the adaptive SEIRD simulation on [0, 1], yielding every output
    snapshot as soon as it is computed, on its adaptive mesh, as (the exact
    time k * dt, mesh, {compartment: values}), as store.write_store takes it.
    The first snapshot's mesh is the reference mesh: n_base_elements uniform
    elements refined initial_uniform_levels times."""
    reference = uniform_refine(build_interval_mesh(0.0, 1.0, n_base_elements),
                               policy.initial_uniform_levels)

    state = SeirdState(mesh=reference, fields=seird_initial_conditions(reference),
                       prev_fields=None, time=Fraction(0))

    # snapshots share the state's arrays: step and remesh_state make new ones
    yield state.time, reference, dict(state.fields)
    out_every = params.output_every
    for k in range(1, params.n_steps + 1):
        if k % policy.remesh_every == 0:
            state = remesh_state(state, policy)
        state = step(state, params)
        if k % out_every == 0:
            yield state.time, state.mesh, dict(state.fields)


# ---------------------------------------------------------------------------
# indicator-projection demonstration

BOX_HALF_WIDTH = 0.3
_JITTER_SEED = 1742


def _indicator_values(nodes) -> np.ndarray:
    ax = np.abs(nodes[:, 0])
    ay = np.abs(nodes[:, 1])
    return ((ax <= BOX_HALF_WIDTH) & (ay <= BOX_HALF_WIDTH)).astype(float)


def _transition_values(nodes) -> np.ndarray:
    """Indicator with two-sided averaging: nodes exactly on the jump set
    carry 1/2, which is what any pointwise-consistent approximation of the
    discontinuity sees there."""
    ax = np.abs(nodes[:, 0])
    ay = np.abs(nodes[:, 1])
    w = BOX_HALF_WIDTH
    inside = (ax < w - 1e-12) & (ay < w - 1e-12)
    on_edge = ((np.isclose(ax, w, atol=1e-12) & (ay <= w + 1e-12))
               | (np.isclose(ay, w, atol=1e-12) & (ax <= w + 1e-12)))
    u = np.zeros(len(nodes))
    u[on_edge] = 0.5
    u[inside] = 1.0
    return u


def transition_crossing_elements(mesh: SimplicialMesh) -> frozenset:
    """Elements crossing the indicator jump set: nodal values differ, or a
    corner of the jump set sits inside the element (a crossing vertex
    sampling cannot see)."""
    u = _transition_values(mesh.nodes)
    vals = u[mesh.elements]
    flagged = set(np.where(vals.max(axis=1) - vals.min(axis=1) > 1e-12)[0].tolist())
    w = BOX_HALF_WIDTH
    eids = np.arange(mesh.n_elems)
    for corner in ((w, w), (w, -w), (-w, w), (-w, -w)):
        lam = barycentric(mesh, eids, np.tile(corner, (mesh.n_elems, 1)))
        flagged.update(np.flatnonzero(np.all(lam >= -BARY_TOL, axis=1)).tolist())
    return frozenset(flagged)


def refine_elements_one_level(mesh: SimplicialMesh, flagged) -> SimplicialMesh:
    """One full refinement level for the flagged elements: two bisection
    passes, so each flagged triangle ends up split along all three edges."""
    flagged = frozenset(int(e) for e in flagged)
    first = refine(mesh, RefinementPlan(refine=flagged))
    if first is mesh:
        return mesh
    parents = {(e, 1) if mesh.lineage is None else tuple(mesh.lineage[e].tolist())
               for e in flagged}
    kids = frozenset(i for i, (r, p) in enumerate(first.lineage.tolist())
                     if (r, p >> 1) in parents)
    return refine(first, RefinementPlan(refine=kids))


def build_demo_donor() -> tuple[SimplicialMesh, np.ndarray]:
    """Adaptive donor for the projection demo.

    The box indicator is approximated once, by nodal interpolation on the
    initial 10x10 mesh; the transition region is then refined three times.
    Refinement is nested, so carrying the field along is plain linear
    interpolation and leaves it unchanged as a function. Flagging tracks the
    transition of the underlying indicator, not of the carried field.
    """
    coarse = build_structured_triangle_mesh([-1, 1], [-1, 1], 10, 10)
    mesh = coarse
    for _ in range(3):
        mesh = refine_elements_one_level(mesh, transition_crossing_elements(mesh))
    return mesh, fem.evaluate_many(coarse, _indicator_values(coarse.nodes), mesh.nodes)


def build_jittered_mesh(nx: int = 100, ny: int = 100,
                        amplitude: float = 0.10,
                        seed: int = _JITTER_SEED) -> SimplicialMesh:
    """Unstructured-looking target: a structured grid whose interior nodes
    are deterministically jittered by a fraction of the cell size."""
    from .philox import philox_uniform      # only the demo's target draws
    mesh = build_structured_triangle_mesh([-1, 1], [-1, 1], nx, ny)
    h = 2.0 / nx
    draws = philox_uniform(seed, 2 * mesh.n_nodes).reshape(-1, 2)
    offsets = (draws - 0.5) * 2.0 * amplitude * h
    interior = ((np.abs(np.abs(mesh.nodes[:, 0]) - 1.0) > 1e-12)
                & (np.abs(np.abs(mesh.nodes[:, 1]) - 1.0) > 1e-12))
    nodes = mesh.nodes.copy()
    nodes[interior] += offsets[interior]
    return SimplicialMesh(dim=2, nodes=nodes, elements=mesh.elements.copy())


def indicator_projection_demo() -> dict:
    """Adaptive interpolation of a box indicator projected onto a matching
    structured mesh and a finer jittered mesh: {"donor", "structured",
    "unstructured"}, in that order, each a (mesh, values) pair. Each target's
    projection operator is released before the next one is built, so one is
    alive at a time."""
    donor, chi = build_demo_donor()
    outputs = {"donor": (donor, chi)}
    for name, target in (
            ("structured", build_structured_triangle_mesh([-1, 1], [-1, 1], 80, 80)),
            ("unstructured", build_jittered_mesh())):
        op = l2projection.build_projection(donor, target)
        outputs[name] = (target, l2projection.project(op, chi))
        del op
    return outputs
