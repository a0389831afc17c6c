"""Built-in snapshot generators.

Three families: a 1-d SEIRD reaction-diffusion solver with adaptive mesh
refinement/coarsening whose outputs are projected onto a fixed reference
mesh, a 2-d indicator-projection demonstration, and synthetic
linear-dynamics series used as ground truth for the decomposition code.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import fem, l2projection, qoi_metrics
from .dmd import SnapshotMatrix
from .errors import InvalidArgumentError, StepError
from .fem import FeField, SparseSpd, cg_solve
from .linalg import gaussian_matrix
from .mesh import (RefinementPlan, SimplicialMesh, build_interval_mesh,
                   build_structured_triangle_mesh, refine, uniform_refine)

COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
LIVING = ("s", "e", "i", "r")
PICARD_TOL = 1e-8       # relative update that ends the Picard loop
PICARD_MAX = 25         # Picard iterations before a step fails


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
            j = value / self.dt
            if abs(j - round(j)) > 1e-9 or round(j) < 1:
                raise InvalidArgumentError(f"{name} must be an integer multiple of dt")

    @property
    def output_every(self) -> int:
        return int(round(self.dt_o / self.dt))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class AmrPolicy:
    remesh_every: int = 4        # steps between refinement passes
    refine_fraction: float = 0.3
    coarsen_fraction: float = 0.05
    max_level: int = 2
    initial_uniform_levels: int = 2

    def __post_init__(self):
        if not (0 <= self.refine_fraction <= 1 and 0 <= self.coarsen_fraction <= 1):
            raise InvalidArgumentError("fractions must lie in [0, 1]")
        if self.refine_fraction + self.coarsen_fraction > 1:
            raise InvalidArgumentError("refine + coarsen fractions exceed 1")
        if self.remesh_every < 1:
            raise InvalidArgumentError("remesh_every must be >= 1")


@dataclass
class SeirdState:
    mesh: SimplicialMesh
    fields: dict
    prev_fields: dict | None
    time: float
    step_index: int

    def as_fe_fields(self) -> dict[str, FeField]:
        return {c: FeField(self.mesh, self.fields[c], name=c) for c in COMPARTMENTS}


def seird_initial_conditions(mesh: SimplicialMesh) -> dict[str, FeField]:
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
    zeros = np.zeros_like(x)
    out = {"s": s0, "e": e0, "i": zeros.copy(), "r": zeros.copy(),
           "d": zeros.copy(), "c": zeros.copy()}
    return {c: FeField(mesh, v, name=c) for c, v in out.items()}


# ---------------------------------------------------------------------------
# 1-d assembly helpers (all exact for the polynomial degrees involved)

def _element_data(mesh):
    el = mesh.elements
    h = mesh.element_measures()
    return el, h


def _mass_coo(mesh, coef):
    """Triples of the P1 mass matrix weighted by a nodal coefficient."""
    el, h = _element_data(mesh)
    c1 = coef[el[:, 0]]
    c2 = coef[el[:, 1]]
    m11 = h * (3 * c1 + c2) / 12.0
    m12 = h * (c1 + c2) / 12.0
    m22 = h * (c1 + 3 * c2) / 12.0
    rows = np.concatenate([el[:, 0], el[:, 0], el[:, 1], el[:, 1]])
    cols = np.concatenate([el[:, 0], el[:, 1], el[:, 0], el[:, 1]])
    vals = np.concatenate([m11, m12, m12, m22])
    return rows, cols, vals


def _stiffness_coo(mesh, coef):
    """Triples of the stiffness matrix with P1 coefficient (mean per element)."""
    el, h = _element_data(mesh)
    a = 0.5 * (coef[el[:, 0]] + coef[el[:, 1]]) / h
    rows = np.concatenate([el[:, 0], el[:, 0], el[:, 1], el[:, 1]])
    cols = np.concatenate([el[:, 0], el[:, 1], el[:, 0], el[:, 1]])
    vals = np.concatenate([a, -a, -a, a])
    return rows, cols, vals


_GAUSS5 = fem.gauss_rule_1d(5)


def _product_load(mesh, factors):
    """Load vector of the product of nodal P1 factors, by degree-5 Gauss."""
    el, h = _element_data(mesh)
    phi = _GAUSS5.points                   # (nq, 2)
    w = _GAUSS5.weights
    prod_q = np.ones((mesh.n_elems, phi.shape[0]))
    for f in factors:
        prod_q *= f[el] @ phi.T
    rhs = np.zeros(mesh.n_nodes)
    for j in range(2):
        contrib = h * ((prod_q * phi[:, j][None, :]) @ w)
        np.add.at(rhs, el[:, j], contrib)
    return rhs


def _dirichlet_node(mesh):
    right = mesh.nodes[:, 0].max()
    return int(np.where(np.abs(mesh.nodes[:, 0] - right) <= 1e-12)[0][0])


def _solve_system(coo_parts, rhs, bc_node, tol=1e-12):
    rows = np.concatenate([p[0] for p in coo_parts])
    cols = np.concatenate([p[1] for p in coo_parts])
    vals = np.concatenate([p[2] for p in coo_parts])
    if bc_node is not None:
        keep = (rows != bc_node) & (cols != bc_node)
        rows = np.append(rows[keep], bc_node)
        cols = np.append(cols[keep], bc_node)
        vals = np.append(vals[keep], 1.0)
        rhs = rhs.copy()
        rhs[bc_node] = 0.0
    n = rhs.shape[0]
    A = SparseSpd(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())
    return cg_solve(A, rhs, tol=tol)


def step(state: SeirdState, params: SeirdParams,
         dirichlet_right: bool = True) -> SeirdState:
    """Advance one time step: P1 Galerkin in space, BDF2 in time (backward
    Euler on the first step), Picard iteration on the lagged nonlinear
    couplings (products s*i, s*e and the population-weighted diffusion)
    until the largest relative update is <= PICARD_TOL, else StepError after
    PICARD_MAX iterations. dirichlet_right pins all fields to 0 at x = 1."""
    mesh = state.mesh
    u = state.fields
    up = state.prev_fields
    dt = params.dt
    M = fem.assemble_mass(mesh).matrix
    bc = _dirichlet_node(mesh) if dirichlet_right else None

    if up is None:
        c0 = 1.0 / dt
        hist = {c: (M @ u[c]) / dt for c in COMPARTMENTS}
    else:
        c0 = 1.5 / dt
        hist = {c: (M @ (2.0 * u[c] - 0.5 * up[c])) / dt for c in COMPARTMENTS}

    M_coo = M.tocoo()
    c0_mass = (M_coo.row, M_coo.col, c0 * M_coo.data)

    lag = {c: u[c].copy() for c in COMPARTMENTS}
    for iteration in range(PICARD_MAX):
        n_pop = lag["s"] + lag["e"] + lag["i"] + lag["r"]
        if params.A_e > 0:
            sigma = 1.0 - params.A_e / np.maximum(n_pop, 1e-12)
        else:
            sigma = np.ones(mesh.n_nodes)
        new = {}

        react_s = sigma * (params.beta_i * lag["i"] + params.beta_e * lag["e"])
        new["s"] = _solve_system(
            [c0_mass, _stiffness_coo(mesh, params.nu_s * n_pop),
             _mass_coo(mesh, react_s)],
            hist["s"], bc)

        react_e = (params.alpha + params.gamma_e) * np.ones(mesh.n_nodes) \
            - params.beta_e * sigma * new["s"]
        src_e = _product_load(mesh, [params.beta_i * sigma, new["s"], lag["i"]])
        new["e"] = _solve_system(
            [c0_mass, _stiffness_coo(mesh, params.nu_e * n_pop),
             _mass_coo(mesh, react_e)],
            hist["e"] + src_e, bc)

        react_i = (params.gamma_i + params.delta) * np.ones(mesh.n_nodes)
        new["i"] = _solve_system(
            [c0_mass, _stiffness_coo(mesh, params.nu_i * n_pop),
             _mass_coo(mesh, react_i)],
            hist["i"] + params.alpha * (M @ new["e"]), bc)

        new["r"] = _solve_system(
            [c0_mass, _stiffness_coo(mesh, params.nu_r * n_pop)],
            hist["r"] + params.gamma_e * (M @ new["e"])
            + params.gamma_i * (M @ new["i"]), bc)

        new["d"] = _solve_system(
            [c0_mass], hist["d"] + params.delta * (M @ new["i"]), bc)

        new["c"] = _solve_system(
            [c0_mass], hist["c"] + params.alpha * (M @ new["e"]), bc)

        change = 0.0
        for c in COMPARTMENTS:
            scale = max(float(np.max(np.abs(new[c]))), 1e-14)
            change = max(change, float(np.max(np.abs(new[c] - lag[c]))) / scale)
        lag = new
        if change <= PICARD_TOL:
            break
    else:
        raise StepError(
            f"Picard iteration stalled at t={state.time + dt:.4g} "
            f"(last update {change:.3e} > {PICARD_TOL:g})")

    return SeirdState(mesh=mesh, fields=new,
                      prev_fields={c: u[c].copy() for c in COMPARTMENTS},
                      time=state.time + dt, step_index=state.step_index + 1)


# ---------------------------------------------------------------------------
# adaptive loop

def _transfer_values(old_mesh, new_mesh, values):
    return fem.evaluate_many(FeField(old_mesh, values), new_mesh.nodes)


def _sibling_groups(mesh, candidates):
    by_parent = {}
    for e in candidates:
        lin = mesh.lineage[e]
        if lin is None or mesh.level[e] < 1:
            continue
        by_parent.setdefault(lin[0], []).append(e)
    complete = []
    for parent_nodes, members in by_parent.items():
        if len(members) != 2:
            continue
        siblings = [i for i, l in enumerate(mesh.lineage)
                    if l is not None and l[0] == parent_nodes]
        if sorted(siblings) == sorted(members):
            complete.extend(members)
    return complete


def build_amr_plan(state: SeirdState, policy: AmrPolicy) -> RefinementPlan:
    """Rank elements by the flux-jump indicator summed over s, e, i; refine
    the top fraction (below max_level), coarsen complete sibling groups in
    the bottom fraction."""
    mesh = state.mesh
    score = np.zeros(mesh.n_elems)
    for c in ("s", "e", "i"):
        score += fem.flux_jump_indicator(FeField(mesh, state.fields[c], name=c))
    order = np.lexsort((np.arange(mesh.n_elems), -score))
    n_ref = int(policy.refine_fraction * mesh.n_elems)
    n_coar = int(policy.coarsen_fraction * mesh.n_elems)
    refine_ids = [int(e) for e in order[:n_ref]
                  if mesh.level[e] < policy.max_level]
    coarsen_pool = [int(e) for e in order[mesh.n_elems - n_coar:]] if n_coar else []
    coarsen_ids = _sibling_groups(mesh, coarsen_pool)
    return RefinementPlan(refine=frozenset(refine_ids),
                          coarsen=frozenset(coarsen_ids),
                          max_level=policy.max_level)


def remesh_state(state: SeirdState, policy: AmrPolicy) -> SeirdState:
    plan = build_amr_plan(state, policy)
    new_mesh = refine(state.mesh, plan)
    if new_mesh is state.mesh:
        return state
    fields = {c: _transfer_values(state.mesh, new_mesh, v)
              for c, v in state.fields.items()}
    prev = None
    if state.prev_fields is not None:
        prev = {c: _transfer_values(state.mesh, new_mesh, v)
                for c, v in state.prev_fields.items()}
    return SeirdState(mesh=new_mesh, fields=fields, prev_fields=prev,
                      time=state.time, step_index=state.step_index)


@dataclass
class SeirdRunResult:
    reference: SimplicialMesh
    times: list                      # Fractions, one per snapshot
    projected: list                  # dict name -> nodal values on reference
    adaptive: list                   # (mesh, dict name -> nodal values)
    population_adaptive: qoi_metrics.QoiSeries
    population_projected: qoi_metrics.QoiSeries
    projection_residuals: list = field(default_factory=list)

    @property
    def float_times(self):
        return [float(t) for t in self.times]

    def snapshot_matrix(self, name: str) -> SnapshotMatrix:
        data = np.column_stack([snap[name] for snap in self.projected])
        dt_o = float(self.times[1] - self.times[0])
        return SnapshotMatrix(data=data, t0=float(self.times[0]), dt_o=dt_o,
                              field_name=name, mesh=self.reference)


def run_seird_amr(params: SeirdParams, policy: AmrPolicy,
                  n_base_elements: int = 125) -> SeirdRunResult:
    """Run the adaptive SEIRD simulation on [0, 1], keeping every output
    snapshot on its adaptive mesh and projecting it onto the reference
    mesh: n_base_elements uniform elements refined initial_uniform_levels
    times, which is also the initial mesh."""
    reference = uniform_refine(build_interval_mesh(0.0, 1.0, n_base_elements),
                               policy.initial_uniform_levels)

    init = seird_initial_conditions(reference)
    state = SeirdState(mesh=reference,
                       fields={c: init[c].values.copy() for c in COMPARTMENTS},
                       prev_fields=None, time=0.0, step_index=0)

    dt_o_frac = Fraction(str(params.dt_o))
    times, projected, adaptive, residuals = [], [], [], []
    op = None

    def emit(state, out_index):
        nonlocal op
        if op is None or op.donor is not state.mesh:
            op = l2projection.build_projection(state.mesh, reference)
        snap = {}
        worst = 0.0
        for c in COMPARTMENTS:
            f = FeField(state.mesh, state.fields[c], name=c)
            proj = l2projection.project(op, f)
            snap[c] = proj.values
            worst = max(worst, l2projection.projection_residual(op, f, proj))
        times.append(out_index * dt_o_frac)
        projected.append(snap)
        residuals.append(worst)
        adaptive.append((state.mesh,
                         {c: state.fields[c].copy() for c in COMPARTMENTS}))

    emit(state, 0)
    out_every = params.output_every
    for k in range(1, params.n_steps + 1):
        if policy.remesh_every and k % policy.remesh_every == 0:
            state = remesh_state(state, policy)
        state = step(state, params)
        if k % out_every == 0:
            emit(state, k // out_every)

    float_times = [float(t) for t in times]
    pop_adapt = qoi_metrics.population_series(
        float_times,
        [{c: FeField(m, v[c], name=c) for c in qoi_metrics.COMPARTMENTS}
         for m, v in adaptive])
    pop_proj = qoi_metrics.population_series(
        float_times,
        [{c: FeField(reference, snap[c], name=c)
          for c in qoi_metrics.COMPARTMENTS} for snap in projected])
    return SeirdRunResult(reference=reference, times=times,
                          projected=projected, adaptive=adaptive,
                          population_adaptive=pop_adapt,
                          population_projected=pop_proj,
                          projection_residuals=residuals)


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


def _elements_containing(mesh, point):
    pts = mesh.nodes[mesh.elements]
    v0 = pts[:, 0]
    d1 = pts[:, 1] - v0
    d2 = pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    dx = point[0] - v0[:, 0]
    dy = point[1] - v0[:, 1]
    l1 = (dx * d2[:, 1] - dy * d2[:, 0]) / det
    l2 = (-dx * d1[:, 1] + dy * d1[:, 0]) / det
    l0 = 1.0 - l1 - l2
    inside = (l0 >= -1e-12) & (l1 >= -1e-12) & (l2 >= -1e-12)
    return np.where(inside)[0]


def transition_crossing_elements(mesh: SimplicialMesh) -> frozenset:
    """Elements crossing the indicator jump set: nodal values differ, or a
    corner of the jump set sits inside the element (a crossing vertex
    sampling cannot see)."""
    u = _transition_values(mesh.nodes)
    vals = u[mesh.elements]
    flagged = set(np.where(vals.max(axis=1) - vals.min(axis=1) > 1e-12)[0].tolist())
    w = BOX_HALF_WIDTH
    for corner in ((w, w), (w, -w), (-w, w), (-w, -w)):
        flagged.update(int(e) for e in _elements_containing(mesh, corner))
    return frozenset(flagged)


def refine_elements_one_level(mesh: SimplicialMesh, flagged) -> SimplicialMesh:
    """One full refinement level for the flagged elements: two bisection
    passes, so each flagged triangle ends up split along all three edges."""
    flagged = frozenset(int(e) for e in flagged)
    parent_keys = set(tuple(sorted(mesh.elements[e].tolist())) for e in flagged)
    first = refine(mesh, RefinementPlan(refine=flagged))
    kids = frozenset(
        i for i, lin in enumerate(first.lineage)
        if lin is not None and tuple(sorted(lin[0])) in parent_keys)
    return refine(first, RefinementPlan(refine=kids))


def build_demo_donor(passes: int = 3) -> tuple[SimplicialMesh, FeField]:
    """Adaptive donor for the projection demo.

    The box indicator is approximated once, by nodal interpolation on the
    initial 10x10 mesh; the transition region is then refined three times.
    Refinement is nested, so carrying the field along is plain linear
    interpolation and leaves it unchanged as a function. Flagging tracks the
    transition of the underlying indicator, not of the carried field.
    """
    coarse = build_structured_triangle_mesh([-1, 1], [-1, 1], 10, 10)
    approx = FeField(coarse, _indicator_values(coarse.nodes), name="chi")
    mesh = coarse
    for _ in range(passes):
        mesh = refine_elements_one_level(mesh, transition_crossing_elements(mesh))
    carried = fem.evaluate_many(approx, mesh.nodes)
    return mesh, FeField(mesh, carried, name="chi")


def build_jittered_mesh(nx: int = 100, ny: int = 100,
                        amplitude: float = 0.10,
                        seed: int = _JITTER_SEED) -> SimplicialMesh:
    """Unstructured-looking target: a structured grid whose interior nodes
    are deterministically jittered by a fraction of the cell size."""
    mesh = build_structured_triangle_mesh([-1, 1], [-1, 1], nx, ny)
    h = 2.0 / nx
    gen = np.random.Generator(np.random.Philox(key=seed))
    offsets = (gen.random((mesh.n_nodes, 2)) - 0.5) * 2.0 * amplitude * h
    interior = ((np.abs(np.abs(mesh.nodes[:, 0]) - 1.0) > 1e-12)
                & (np.abs(np.abs(mesh.nodes[:, 1]) - 1.0) > 1e-12))
    nodes = mesh.nodes.copy()
    nodes[interior] += offsets[interior]
    return SimplicialMesh(dim=2, nodes=nodes, elements=mesh.elements.copy(),
                          level=np.zeros(mesh.n_elems, dtype=np.int64))


@dataclass
class IndicatorDemoReport:
    donor_elements: int
    donor_nodes: int
    donor_inf_norm: float
    structured_elements: int
    structured_nodes: int
    structured_inf_norm: float
    unstructured_elements: int
    unstructured_nodes: int
    unstructured_inf_norm: float

    def lines(self):
        return [
            f"donor_elements = {self.donor_elements}",
            f"donor_nodes = {self.donor_nodes}",
            f"donor_inf_norm = {self.donor_inf_norm:.17g}",
            f"structured_elements = {self.structured_elements}",
            f"structured_nodes = {self.structured_nodes}",
            f"structured_inf_norm = {self.structured_inf_norm:.17g}",
            f"unstructured_elements = {self.unstructured_elements}",
            f"unstructured_nodes = {self.unstructured_nodes}",
            f"unstructured_inf_norm = {self.unstructured_inf_norm:.17g}",
        ]


@dataclass
class IndicatorDemoArtifacts:
    donor: SimplicialMesh
    donor_field: FeField
    structured: SimplicialMesh
    structured_field: FeField
    unstructured: SimplicialMesh
    unstructured_field: FeField
    report: IndicatorDemoReport


def indicator_projection_demo() -> IndicatorDemoArtifacts:
    """Adaptive interpolation of a box indicator projected onto a matching
    structured mesh and a finer jittered mesh; reports sizes and sup-norms.
    """
    donor, chi = build_demo_donor()
    structured = build_structured_triangle_mesh([-1, 1], [-1, 1], 80, 80)
    unstructured = build_jittered_mesh()
    projections = {}
    for name, target in (("structured", structured), ("unstructured", unstructured)):
        op = l2projection.build_projection(donor, target)
        projections[name] = l2projection.project(op, chi)
    report = IndicatorDemoReport(
        donor_elements=donor.n_elems,
        donor_nodes=donor.n_nodes,
        donor_inf_norm=fem.inf_norm(chi),
        structured_elements=structured.n_elems,
        structured_nodes=structured.n_nodes,
        structured_inf_norm=fem.inf_norm(projections["structured"]),
        unstructured_elements=unstructured.n_elems,
        unstructured_nodes=unstructured.n_nodes,
        unstructured_inf_norm=fem.inf_norm(projections["unstructured"]),
    )
    return IndicatorDemoArtifacts(
        donor=donor, donor_field=chi,
        structured=structured, structured_field=projections["structured"],
        unstructured=unstructured, unstructured_field=projections["unstructured"],
        report=report)


# ---------------------------------------------------------------------------
# synthetic linear dynamics

def synth_linear_series(eigenvalues, n: int, m: int, seed: int,
                        dt_o: float = 1.0, t0: float = 0.0) -> SnapshotMatrix:
    """Snapshots of u_{k+1} = A u_k for a real map with the prescribed
    eigenvalues, in a random orthonormal modal basis. Complex eigenvalues
    must come in conjugate pairs; the series is real. Deterministic for a
    fixed seed."""
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    k = lam.size
    if k > m:
        raise InvalidArgumentError("more eigenvalues than snapshot pairs")
    if n < k:
        raise InvalidArgumentError("state dimension below eigenvalue count")
    for i in range(k):
        for j in range(i + 1, k):
            if abs(lam[i] - lam[j]) <= 1e-12:
                raise InvalidArgumentError("eigenvalues must be distinct")
    # real block-diagonal form; conjugate pairs share one rotation block
    used = np.zeros(k, dtype=bool)
    blocks = []
    for i in range(k):
        if used[i]:
            continue
        if abs(lam[i].imag) <= 1e-14:
            blocks.append(np.array([[lam[i].real]]))
            used[i] = True
            continue
        conj_idx = [j for j in range(k) if not used[j] and j != i
                    and abs(lam[j] - np.conj(lam[i])) <= 1e-12]
        if not conj_idx:
            raise InvalidArgumentError(
                f"complex eigenvalue {lam[i]} lacks its conjugate")
        rho = abs(lam[i])
        theta = abs(np.angle(lam[i]))
        blocks.append(rho * np.array([[np.cos(theta), -np.sin(theta)],
                                      [np.sin(theta), np.cos(theta)]]))
        used[i] = used[conj_idx[0]] = True
    B = np.zeros((k, k))
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        B[pos:pos + w, pos:pos + w] = blk
        pos += w

    basis, _ = np.linalg.qr(gaussian_matrix(n, k, seed))
    offset = 0
    while True:
        coeffs = 1.0 + 0.25 * gaussian_matrix(k, 1, seed + 1 + offset)[:, 0]
        if np.min(np.abs(coeffs)) > 0.05:
            break
        offset += 1
    states = np.empty((k, m + 1))
    x = coeffs.copy()
    for col in range(m + 1):
        states[:, col] = x
        x = B @ x
    data = basis @ states
    return SnapshotMatrix(data=data, t0=t0, dt_o=dt_o, field_name="synthetic")
