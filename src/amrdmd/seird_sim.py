"""Built-in snapshot generators.

Three families: a 1-d SEIRD reaction-diffusion solver with adaptive mesh
refinement/coarsening whose outputs are projected onto a fixed reference
mesh, a 2-d indicator-projection demonstration, and synthetic
linear-dynamics series used as ground truth for the decomposition code.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fem, l2projection, qoi_metrics
from .dmd import SnapshotMatrix
from .errors import (AssemblyError, ConfigError, InvalidArgumentError,
                     StepError)
from .fem import FeField, cg_solve
from .linalg import gaussian_matrix
from .mesh import (RefinementPlan, SimplicialMesh, band_layout,
                   build_interval_mesh, build_structured_triangle_mesh,
                   elements_containing, refine, sibling_groups, uniform_refine)

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
    if not params_kwargs and not policy_kwargs:
        raise ConfigError("configuration file is empty", line_no=1)
    try:
        params = SeirdParams(**params_kwargs)
        policy = AmrPolicy(**policy_kwargs)
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return params, policy, n_elems


@dataclass
class SeirdState:
    mesh: SimplicialMesh
    fields: dict
    prev_fields: dict | None
    time: float
    step_index: int


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
    return cg_solve(A, rhs, tol=1e-12)


def _product_load(h, factors):
    """Load vector of the product of nodal P1 factors, by degree-5 Gauss."""
    rule = fem.reference_rule(1, 5)
    phi = rule.points                      # (nq, 2)
    w = rule.weights
    prod_q = np.ones((h.size, phi.shape[0]))
    for f in factors:
        prod_q *= np.column_stack((f[:-1], f[1:])) @ phi.T
    rhs = np.zeros(h.size + 1)
    rhs[:-1] += h * ((prod_q * phi[:, 0][None, :]) @ w)
    rhs[1:] += h * ((prod_q * phi[:, 1][None, :]) @ w)
    return rhs


def step(state: SeirdState, params: SeirdParams,
         dirichlet_right: bool = True) -> SeirdState:
    """Advance one time step: P1 Galerkin in space, BDF2 in time (backward
    Euler on the first step), Picard iteration on the lagged nonlinear
    couplings (products s*i, s*e and the population-weighted diffusion)
    until the largest relative update is <= PICARD_TOL, else StepError after
    PICARD_MAX iterations; StepError also when a system loses its positive
    diagonal. dirichlet_right pins all fields to 0 at x = 1.

    The step runs in the band layout of the mesh: the fields are permuted
    into coordinate order once on entry and back once on return."""
    mesh = state.mesh
    order, h = band_layout(mesh)
    if not h.all():
        raise AssemblyError("the elements do not form one chain of "
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
            src_e = _product_load(h, [params.beta_i * sigma, new[0], i])
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
                f"Picard iteration stalled at t={state.time + dt:.4g} "
                f"(last update {change:.3e} > {PICARD_TOL:g})")
    except InvalidArgumentError as exc:
        # coefficients computed by the step, not given by the caller, made a
        # system indefinite (a large A_e drives sigma far below zero)
        raise StepError(f"step to t={state.time + dt:.4g} failed: {exc}") from exc

    out = np.empty_like(new)
    out[:, order] = new
    return SeirdState(mesh=mesh, fields=dict(zip(COMPARTMENTS, out)),
                      prev_fields=dict(zip(COMPARTMENTS, u)),
                      time=state.time + dt, step_index=state.step_index + 1)


# ---------------------------------------------------------------------------
# adaptive loop

def _transfer_values(old_mesh, new_mesh, values):
    return fem.evaluate_many(FeField(old_mesh, values), new_mesh.nodes)


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
    pool = set(order[mesh.n_elems - n_coar:].tolist())
    coarsen_ids = [e for members in sibling_groups(mesh).values()
                   if len(members) == 2 and pool.issuperset(members)
                   for e in members]
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


def transition_crossing_elements(mesh: SimplicialMesh) -> frozenset:
    """Elements crossing the indicator jump set: nodal values differ, or a
    corner of the jump set sits inside the element (a crossing vertex
    sampling cannot see)."""
    u = _transition_values(mesh.nodes)
    vals = u[mesh.elements]
    flagged = set(np.where(vals.max(axis=1) - vals.min(axis=1) > 1e-12)[0].tolist())
    w = BOX_HALF_WIDTH
    for corner in ((w, w), (w, -w), (-w, w), (-w, -w)):
        flagged.update(elements_containing(mesh, corner).tolist())
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
