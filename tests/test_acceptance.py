"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest -v tests/test_acceptance.py` (test outcomes give the
per-criterion pass/fail lines) or with `-s` to also see the printed
summaries. The SEIRD pipeline artifacts are produced once through the
real CLI and shared across criteria 4 and 8.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from amrdmd import dmd, fem, l2projection as L2, linalg, mesh as M
from amrdmd import pipeline_cli, seird_sim, store

from conftest import l2_norm, partition_defect, rank_check, synth_linear_series

CRIT1_EIGS = [0.95, 0.8, 0.6 * np.exp(0.4j), 0.6 * np.exp(-0.4j)]
CRIT1_SEED = 7
COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
RECON_BOUNDS = {"s": 3.2e-3, "e": 5.2e-2, "i": 2.4e-2,
                "r": 2.9e-2, "d": 4.1e-2, "c": 2.6e-2}
PREDICTION_FACTOR = 10.0


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def run_cli(*argv):
    return pipeline_cli.main([str(a) for a in argv])


def benchmark_preset_config(path: Path):
    path.write_text(
        "dt = 0.25\n"
        "dt_o = 0.25\n"
        "t_end = 44.0\n"
        "n_elems = 125\n"
        "initial_uniform_levels = 2\n"
        "max_level = 2\n"
        "remesh_every = 4\n")
    return path


def run_full_pipeline(root: Path):
    """simulate -> per-compartment fit/predict/report through the CLI."""
    cfg = benchmark_preset_config(root / "run.cfg")
    sim = root / "sim"
    t0 = time.perf_counter()
    assert run_cli("simulate", cfg, sim, "--quiet") == 0
    mesh_file = sim / "projected" / "mesh_0000.mesh.txt"
    for c in COMPARTMENTS:
        model = root / f"{c}.dmd.txt"
        assert run_cli("dmd", "fit", sim / "projected", model, "--field", c,
                       "--t-start", "3", "--t-end", "30", "--rank", "15",
                       "--quiet") == 0
        pred = root / f"pred_{c}"
        assert run_cli("dmd", "predict", model, pred, "--mesh", mesh_file,
                       "--until", "44", "--quiet") == 0
        assert run_cli("report", "errors", sim / "projected", pred,
                       root / f"errors_{c}.csv", "--field", c,
                       "--train-end", "30", "--quiet") == 0
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_pipeline")
    elapsed = run_full_pipeline(root)
    return root, elapsed


def test_criterion_1_dmd_linear_oracle_recovery():
    t0 = time.perf_counter()
    Y = synth_linear_series(CRIT1_EIGS, n=200, m=40, seed=CRIT1_SEED)
    model = dmd.fit(Y, rank=4)
    target = np.sort_complex(np.asarray(CRIT1_EIGS, dtype=complex))
    got = np.sort_complex(model.lam)
    eig_err = float(np.max(np.abs(got - target)))
    eta_F = dmd.errors(Y.data, dmd.reconstruct(model, Y.times)).eta_F
    # recurrence oracle: the same generator continued 10 steps further
    Y_long = synth_linear_series(CRIT1_EIGS, n=200, m=50, seed=CRIT1_SEED)
    assert np.array_equal(Y_long.data[:, :41], Y.data)
    future = Y_long.times[41:]
    pred = dmd.reconstruct(model, future)
    truth = Y_long.data[:, 41:]
    extrap = float(np.linalg.norm(pred - truth) / np.linalg.norm(truth))
    elapsed = time.perf_counter() - t0
    report("1 linear-oracle recovery",
           eig_err <= 1e-8 and eta_F <= 1e-8 and extrap <= 1e-6 and elapsed < 5,
           f"max|dlam|={eig_err:.2e}, eta_F={eta_F:.2e}, "
           f"extrap={extrap:.2e}, {elapsed:.2f}s")


def test_criterion_2_indicator_projection_demo():
    t0 = time.perf_counter()
    demo = seird_sim.indicator_projection_demo()
    elapsed = time.perf_counter() - t0
    donor = demo["donor"][0]
    structured_inf = fem.inf_norm(demo["structured"][1])
    unstructured_inf = fem.inf_norm(demo["unstructured"][1])
    ok = (donor.n_elems == 1672 and donor.n_nodes == 857
          and abs(structured_inf - 1.000) <= 0.01
          and 0.98 <= unstructured_inf <= 1.01
          and elapsed < 30)
    report("2 indicator projection",
           ok,
           f"donor {donor.n_elems}/{donor.n_nodes}, "
           f"structured inf={structured_inf:.4f}, "
           f"unstructured inf={unstructured_inf:.4f}, {elapsed:.1f}s")


def test_criterion_3_nested_projection_theory():
    rng = np.random.default_rng(123)
    worst_rank_defect = 0
    worst_l2 = 0.0
    worst_partition = 0.0
    for trial in range(10):
        if trial % 2 == 0:
            donor = M.build_interval_mesh(0, 1, int(rng.integers(2, 7)))
            flags = frozenset(int(e) for e in range(donor.n_elems)
                              if rng.random() < 0.6)
            donor = M.refine(donor, M.RefinementPlan(refine=flags)) \
                if flags else donor
            target = M.uniform_refine(donor, int(rng.integers(1, 3)))
        else:
            donor = M.build_structured_triangle_mesh(
                [0, 1], [0, 1], int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            flags = frozenset(int(e) for e in range(donor.n_elems)
                              if rng.random() < 0.4)
            donor = M.refine(donor, M.RefinementPlan(refine=flags)) \
                if flags else donor
            target = M.uniform_refine(donor, 1)
        op = L2.build_projection(donor, target)
        worst_rank_defect = max(worst_rank_defect,
                                abs(rank_check(op) - donor.n_nodes))
        u = rng.normal(size=donor.n_nodes)
        proj = L2.project(op, u)
        exact = fem.evaluate_many(donor, u, target.nodes)
        worst_l2 = max(worst_l2, l2_norm(target, proj - exact))
        worst_partition = max(worst_partition, partition_defect(op))
    ok = worst_rank_defect == 0 and worst_l2 <= 1e-10 and worst_partition <= 1e-10
    report("3 nested full-rank/theory",
           ok,
           f"rank defect={worst_rank_defect}, L2={worst_l2:.2e}, "
           f"P1-M1={worst_partition:.2e}")


def _window_eta(sim_dir, root, compartment, t_lo, t_hi):
    # only the compartment's column of the snapshots in the window is read
    window = dict(fields=[compartment], t_start=Fraction(t_lo), t_end=Fraction(t_hi))
    truth = store.read_store(sim_dir / "projected", **window)
    pred = store.read_store(root / f"pred_{compartment}", **window)
    pred_by_time = {e.time: e for e in pred.entries}
    cols_truth, cols_pred, times = [], [], []
    for e in truth.entries:
        if e.time in pred_by_time:
            cols_truth.append(e.fields[compartment])
            cols_pred.append(pred_by_time[e.time].fields[compartment])
            times.append(e.time)
    Y = np.column_stack(cols_truth)
    Yh = np.column_stack(cols_pred)
    return dmd.errors(Y, Yh), np.asarray(times)


def test_criterion_4_seird_pipeline(pipeline_run):
    root, elapsed = pipeline_run
    sim = root / "sim"
    n_snaps = len((sim / "projected" / "manifest.txt").read_text().splitlines())
    assert n_snaps == 177      # t = 0 .. 44 days at 0.25-day output interval
    pop_ok = True
    for csv in ("population_adaptive.csv", "population_projected.csv"):
        rows = (sim / csv).read_text().splitlines()[1:]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        pop_ok &= bool(vals.min() >= 0.999 and vals.max() <= 1.001)

    recon_ok = True
    pred_ok = True
    details = []
    for c in COMPARTMENTS:
        recon, _ = _window_eta(sim, root, c, 3.0, 30.0)
        pred, times = _window_eta(sim, root, c, 44.0, 44.0)
        eta44 = float(pred.eta_series[0])
        recon_ok &= bool(recon.eta_F <= RECON_BOUNDS[c])
        # prediction budget: within PREDICTION_FACTOR of the compartment's
        # reconstruction error bound
        pred_ok &= bool(eta44 <= PREDICTION_FACTOR * RECON_BOUNDS[c])
        details.append(f"{c}:etaF={recon.eta_F:.1e},eta44={eta44:.1e}")
    ok = pop_ok and recon_ok and pred_ok and elapsed <= 600
    report("4 SEIRD pipeline", ok,
           f"pop_ok={pop_ok}, {' '.join(details)}, {elapsed:.0f}s")


def test_criterion_5_linear_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    shapes = [(30, 10), (10, 30), (16, 16)]
    worst_recon = worst_orth = worst_ey = 0.0
    for shape in shapes:
        for _ in range(100):
            A = rng.normal(size=shape)
            res = linalg.svd(A)
            scale = np.linalg.norm(A)
            worst_recon = max(worst_recon,
                              np.linalg.norm(res.reconstruct() - A) / scale)
            k = res.rank_kept
            worst_orth = max(
                worst_orth,
                np.linalg.norm(res.U.T @ res.U - np.eye(k)),
                np.linalg.norm(res.V.T @ res.V - np.eye(k)))
            r = int(rng.integers(1, k))
            t = linalg.truncate(res, r)
            spec_err = np.linalg.norm(A - t.reconstruct(), 2)
            worst_ey = max(worst_ey, abs(spec_err - res.sigma[r]))
    worst_eig = 0.0
    for _ in range(100):
        A = rng.normal(size=(12, 12))
        lam, W = linalg.eig(A)
        scale = np.linalg.norm(A, 2)
        res_norms = np.linalg.norm(A @ W - W * lam[None, :], axis=0)
        worst_eig = max(worst_eig, float(np.max(
            res_norms / (scale * np.linalg.norm(W, axis=0)))))
    worst_rsvd = 0.0
    determinism = True
    for trial in range(100):
        k = int(rng.integers(1, 6))
        U = np.linalg.qr(rng.normal(size=(80, k)))[0]
        V = np.linalg.qr(rng.normal(size=(30, k)))[0]
        sig = np.sort(rng.uniform(0.5, 5.0, size=k))[::-1]
        A = (U * sig) @ V.T
        r1 = linalg.randomized_svd(A, k, seed=trial)
        r2 = linalg.randomized_svd(A, k, seed=trial)
        determinism &= (np.array_equal(r1.U, r2.U)
                        and np.array_equal(r1.sigma, r2.sigma)
                        and np.array_equal(r1.V, r2.V))
        worst_rsvd = max(worst_rsvd, float(np.max(np.abs(r1.sigma - sig))),
                         np.linalg.norm(r1.reconstruct() - A) / np.linalg.norm(A))
    elapsed = time.perf_counter() - t0
    ok = (worst_recon <= 1e-12 and worst_orth <= 1e-10 and worst_ey <= 1e-8
          and worst_eig <= 1e-9 and worst_rsvd <= 1e-10 and determinism
          and elapsed < 60)
    report("5 linear-algebra suite", ok,
           f"recon={worst_recon:.1e}, orth={worst_orth:.1e}, "
           f"eckart-young={worst_ey:.1e}, eig={worst_eig:.1e}, "
           f"rsvd={worst_rsvd:.1e}, deterministic={determinism}, "
           f"{elapsed:.1f}s")


def test_criterion_6_rank_selection():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        sigma = np.sort(np.abs(rng.normal(size=int(rng.integers(1, 15)))))[::-1]
        if sigma.sum() == 0:
            sigma[0] = 1.0
        tau = float(rng.uniform(0.0, 0.999))
        total = np.sum(sigma ** 2)
        expected = len(sigma)
        for r in range(1, len(sigma)):
            if 1.0 - np.sum(sigma[:r] ** 2) / total <= tau:
                expected = r
                break
        if dmd.choose_rank(sigma, tau) != expected:
            mismatches += 1
    # kappa nonincreasing and tau = 0 gives the full numerical rank
    sigma = np.sort(np.abs(rng.normal(size=12)))[::-1]
    total = np.sum(sigma ** 2)
    kappas = [1 - np.sum(sigma[:r] ** 2) / total for r in range(1, 13)]
    monotone = all(b <= a + 1e-15 for a, b in zip(kappas, kappas[1:]))
    full = dmd.choose_rank(sigma, 0.0) == 12
    with_zeros = dmd.choose_rank(np.array([3.0, 1.0, 0.0, 0.0]), 0.0) == 2
    ok = mismatches == 0 and monotone and full and with_zeros
    report("6 rank selection", ok,
           f"mismatches={mismatches}/1000, monotone={monotone}")


def test_criterion_7_mean_conservation():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        nd = int(rng.integers(3, 40))
        nt = int(rng.integers(3, 40))
        if nt == nd:
            nt += 1
        donor = M.build_interval_mesh(0.0, 1.0, nd)
        target = M.build_interval_mesh(0.0, 1.0, nt)
        op = L2.build_projection(donor, target)   # exact on donor-cut pieces
        u = rng.uniform(0.5, 1.5, size=donor.n_nodes)
        proj = L2.project(op, u)
        base = abs(fem.integrate(donor, u))
        worst = max(worst, abs(fem.integrate(target, proj)
                               - fem.integrate(donor, u)) / base)
    report("7 mean conservation", worst <= 1e-8, f"worst rel defect={worst:.2e}")


def test_criterion_8_determinism(pipeline_run, tmp_path):
    root_a, _ = pipeline_run
    # criterion 1 artifacts: identical model files from identical fits
    Y1 = synth_linear_series(CRIT1_EIGS, n=200, m=40, seed=CRIT1_SEED)
    Y2 = synth_linear_series(CRIT1_EIGS, n=200, m=40, seed=CRIT1_SEED)
    data_same = np.array_equal(Y1.data, Y2.data)
    m1 = dmd.fit(Y1, rank=4)
    m2 = dmd.fit(Y2, rank=4)
    p1, p2 = tmp_path / "c1_a.dmd.txt", tmp_path / "c1_b.dmd.txt"
    dmd.save_model(m1, p1)
    dmd.save_model(m2, p2)
    crit1_same = p1.read_bytes() == p2.read_bytes()

    # criterion 4 artifacts: full pipeline repeated into a fresh directory
    root_b = tmp_path / "repeat"
    root_b.mkdir()
    run_full_pipeline(root_b)
    files = ["sim/population_adaptive.csv", "sim/population_projected.csv"]
    files += [f"{c}.dmd.txt" for c in COMPARTMENTS]
    files += [f"errors_{c}.csv" for c in COMPARTMENTS]
    mismatched = [f for f in files
                  if (root_a / f).read_bytes() != (root_b / f).read_bytes()]
    ok = data_same and crit1_same and not mismatched
    report("8 determinism", ok,
           f"crit1 identical={crit1_same}, pipeline mismatches={mismatched}")
