import json
import os
import signal
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amrdmd import dmd, fem, linalg, mesh as M, pipeline_cli, seird_sim, store
from amrdmd.errors import (ConfigError, InvalidArgumentError, StepError,
                           StoreError)

from conftest import fresh_python


class TestFractionRendering:
    @pytest.mark.parametrize("frac,text", [
        (Fraction(1, 4), "0.25"),
        (Fraction(3, 1), "3"),
        (Fraction(0, 1), "0"),
        (Fraction(-5, 2), "-2.5"),
        (Fraction(7, 10), "0.7"),
        (Fraction(44, 1), "44"),
    ])
    def test_exact_decimals(self, frac, text):
        assert store.fraction_to_decimal(frac) == text

    def test_non_decimal_denominator_falls_back(self):
        out = store.fraction_to_decimal(Fraction(1, 3))
        assert abs(float(out) - 1 / 3) < 1e-15


class TestRunConfig:
    def test_parse_valid(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dt = 0.25\n"
            "t_end = 2.0\n"
            "n_elems = 10   # base resolution\n"
            "remesh_every = 4\n"
            "refine_fraction = 0.2\n")
        params, policy, n_elems = seird_sim.parse_run_config(cfg)
        assert params.t_end == 2.0
        assert policy.refine_fraction == 0.2
        assert n_elems == 10

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            seird_sim.parse_run_config(cfg)
        assert err.value.line_no == 2

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = fast\n")
        with pytest.raises(ConfigError) as err:
            seird_sim.parse_run_config(cfg)
        assert err.value.line_no == 1

    def test_empty_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            seird_sim.parse_run_config(cfg)

    def test_duplicate_key_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nn_elems = 10\ndt = 0.5\n")
        with pytest.raises(ConfigError) as err:
            seird_sim.parse_run_config(cfg)
        assert err.value.line_no == 3
        assert pipeline_cli.main(["simulate", str(cfg), str(tmp_path / "out"),
                                  "--quiet"]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    DT = 2.0 ** -20         # exact, and so is every multiple of it used here

    @pytest.mark.parametrize("text,key", [
        ("n_elems = 2000000\ninitial_uniform_levels = 2", None),
        (f"dt = {DT!r}\nt_end = {seird_sim.MAX_STEPS * DT!r}", None),
        (f"dt = {DT!r}\nt_end = {(seird_sim.MAX_STEPS + 1) * DT!r}", "t_end"),
        (f"n_elems = {seird_sim.MAX_ELEMENTS // 4}\ninitial_uniform_levels = 2",
         None),
        (f"n_elems = {seird_sim.MAX_ELEMENTS // 4 + 1}\ninitial_uniform_levels = 2",
         "n_elems"),
        ("dt = 0.25\nn_elems = 0", "n_elems"),
        ("n_elems = 0", "n_elems"),
        ("n_elems = 40", None),
        (f"t_end = {(seird_sim.MAX_SNAPSHOTS - 1) * 0.25!r}", None),
        (f"t_end = {seird_sim.MAX_SNAPSHOTS * 0.25!r}", "t_end"),
    ], ids=["large_job", "max_steps", "one_step_more", "max_elements",
            "more_elements", "no_elements", "only_no_elements", "only_n_elems",
            "max_snapshots", "one_snapshot_more"])
    def test_size_ceilings(self, tmp_path, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        if key is None:
            seird_sim.parse_run_config(cfg)
        else:
            with pytest.raises(ConfigError, match=key):
                seird_sim.parse_run_config(cfg)


class TestStoreRoundtrip:
    def make_snapshots(self, rng, n_snaps=3):
        mesh = M.build_interval_mesh(0, 1, 6)
        snaps = []
        for k in range(n_snaps):
            fields = {"u": rng.normal(size=mesh.n_nodes),
                      "v": rng.normal(size=mesh.n_nodes)}
            snaps.append((Fraction(k, 4), mesh, fields))
        return mesh, snaps

    def test_roundtrip(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng)
        store.write_store(tmp_path / "st", snaps)
        back = store.read_store(tmp_path / "st")
        assert len(back.entries) == 3
        assert back.is_uniform()
        assert back.entries[1].time == 0.25
        assert back.entries[1].time_str == "0.25"
        np.testing.assert_allclose(back.entries[2].fields["v"],
                                   snaps[2][2]["v"], atol=0)

    MAX = 1.7976931348623157e308

    @staticmethod
    def chain(coords):
        """1-d mesh on the ascending coordinates whose gaps are finite and
        wider than the duplicate-node tolerance, NODE_DEDUP_TOL of the
        extent of all the coordinates; None when under two."""
        half = np.array(coords) / 2
        tol = M.NODE_DEDUP_TOL * (2 * float(half.max() - half.min()))
        x = []
        for c in sorted(coords):
            if not x or tol < c - x[-1] < float("inf"):
                x.append(c)
        if len(x) < 2:
            return None
        return M.SimplicialMesh(dim=1, nodes=np.array(x)[:, None],
                                elements=np.column_stack([np.arange(len(x) - 1),
                                                          np.arange(1, len(x))]))

    @settings(max_examples=60, deadline=None)
    @given(coords=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=2, max_size=5),
                           min_size=1, max_size=3),
           mesh_of=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           times=st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4),
                          min_size=6, max_size=6),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=30, max_size=30))
    @example(coords=[[-MAX, -0.0, 1.0], [5e-324, 1.0, MAX]], mesh_of=[0, 1, 0],
             times=[Fraction(0), Fraction(1, 3), Fraction(-5, 2)] * 2,
             values=[-0.0, 5e-324, -MAX, MAX, -2.5e-310] * 6)
    def test_values_and_nodes_come_back_bit_for_bit(self, coords, mesh_of, times,
                                                    values):
        meshes = [m for m in map(self.chain, coords) if m is not None]
        times = sorted(set(times))          # a store's times strictly increase
        assume(meshes and len(times) >= len(mesh_of))
        snaps = []
        for k, j in enumerate(mesh_of):
            m = meshes[j % len(meshes)]
            u = np.array(values[5 * k:5 * k + m.n_nodes])
            snaps.append((times[k], m, {"u": u}))
        with tempfile.TemporaryDirectory() as tmp:
            back = store.read_store(store.write_store(Path(tmp) / "st", snaps))
            n_files = len({p.name for p in Path(tmp, "st").glob("*.mesh.txt")})
        assert n_files == len({id(m) for _, m, _ in snaps})
        assert len(back.entries) == len(snaps)
        for a, (ta, ma, fa) in zip(back.entries, snaps):
            assert a.time_str == store.fraction_to_decimal(ta)
            assert a.mesh.nodes.tobytes() == ma.nodes.tobytes()
            assert a.fields["u"].tobytes() == fa["u"].tobytes()
            for b, (_, mb, _) in zip(back.entries, snaps):
                assert (a.mesh is b.mesh) == (a.mesh_file == b.mesh_file) \
                    == (ma is mb)

    def test_failed_marker_blocks_read(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng)
        store.write_store(tmp_path / "st", snaps)
        (tmp_path / "st" / ".failed").touch()
        with pytest.raises(StoreError):
            store.read_store(tmp_path / "st")

    def test_snapshot_matrix_window(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng, n_snaps=5)
        store.write_store(tmp_path / "st", snaps)
        back = store.read_store(tmp_path / "st", t_start=0.25, t_end=0.75)
        Y = store.store_to_snapshot_matrix(back, "u")
        assert Y.data.shape == (mesh.n_nodes, 3)
        assert Y.t0 == 0.25 and Y.dt_o == 0.25

    def test_non_uniform_store_rejected_for_dmd(self, tmp_path, rng):
        m1 = M.build_interval_mesh(0, 1, 4)
        m2 = M.build_interval_mesh(0, 1, 5)
        snaps = [(Fraction(0), m1, {"u": rng.normal(size=m1.n_nodes)}),
                 (Fraction(1), m2, {"u": rng.normal(size=m2.n_nodes)})]
        store.write_store(tmp_path / "st", snaps)
        back = store.read_store(tmp_path / "st")
        assert not back.is_uniform()
        with pytest.raises(StoreError):
            store.store_to_snapshot_matrix(back, "u")


def run_cli(*argv):
    return pipeline_cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small simulate invocation shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(
        "dt = 0.25\nt_end = 2.0\ndt_o = 0.25\nn_elems = 10\n"
        "initial_uniform_levels = 1\nmax_level = 1\nremesh_every = 4\n")
    out = root / "sim"
    code = run_cli("simulate", cfg, out, "--quiet")
    assert code == 0
    return root, cfg, out


class TestCliSimulate:
    def test_outputs_exist(self, small_run):
        root, cfg, out = small_run
        assert (out / "adaptive" / "manifest.txt").exists()
        assert (out / "projected" / "manifest.txt").exists()
        assert (out / "population_projected.csv").exists()
        assert (out / "run_manifest.txt").exists()
        proj = store.read_store(out / "projected")
        assert len(proj.entries) == 9
        assert proj.is_uniform()

    def test_collision_exit_4(self, small_run):
        root, cfg, out = small_run
        assert run_cli("simulate", cfg, out, "--quiet") == 4

    def test_bad_config_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert run_cli("simulate", bad, tmp_path / "x", "--quiet") == 2

    def test_empty_config_exit_2(self, tmp_path):
        bad = tmp_path / "empty.cfg"
        bad.write_text("")
        assert run_cli("simulate", bad, tmp_path / "y", "--quiet") == 2

    @pytest.mark.parametrize("setting", ["t_end = inf", "beta_i = nan",
                                         "t_end = 1.1", "max_level = -1",
                                         "initial_uniform_levels = -1"])
    def test_invalid_parameter_exit_2_before_output(self, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dt = 0.25\nn_elems = 10\n{setting}\n")
        out = tmp_path / "out"
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "simulate", cfg, out,
                            "--quiet")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("setting,limit", [
        ("dt = 1e-300\ndt_o = 1e-300", "MAX_STEPS"),     # 4.4e301 steps
        ("initial_uniform_levels = 30", "MAX_ELEMENTS"),  # 1.1e10 elements
        ("t_end = 2000000", "MAX_SNAPSHOTS"),             # 8e6 snapshots
    ], ids=["steps", "elements", "snapshots"])
    def test_oversized_run_exit_2_before_output(self, tmp_path, setting, limit):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_elems = 10\n{setting}\n")
        out = tmp_path / "out"
        started = time.monotonic()
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "simulate", cfg, out,
                            "--quiet", timeout=10)
        assert time.monotonic() - started < 5
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(getattr(seird_sim, limit)) in proc.stderr
        assert setting.split()[0] in proc.stderr
        assert not out.exists()

    def test_indefinite_step_system_exit_3(self, tmp_path):
        # A_e = 0.001 drives sigma to about -8900 where the population is
        # near zero, so a Picard system loses its positive diagonal
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nt_end = 1\nn_elems = 20\nA_e = 0.001\n")
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "simulate", cfg,
                            tmp_path / "out", "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "step to t=" in proc.stderr

    @pytest.mark.parametrize("setting", [
        # the i system of the first step has the subnormal load alpha M e
        "n_elems = 20\nalpha = 1e-310",
        # kappa dt / h^2 near 1e5: the band solves miss 1e-12 |b| by rounding
        # in |A||x| alone, so they are measured against |A||x|
        "n_elems = 1000\nnu_e = 0.03"], ids=["subnormal_load", "diffusive"])
    def test_extreme_but_valid_config_runs(self, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dt = 0.25\nt_end = 0.5\n{setting}\n")
        assert run_cli("simulate", cfg, tmp_path / "out", "--quiet") == 0
        assert len(store.read_store(tmp_path / "out" / "projected").entries) == 3

    @pytest.mark.parametrize("rate", ["alpha", "nu_s", "gamma_e", "delta"])
    def test_overflowing_rate_exit_3_naming_the_step(self, tmp_path, rate):
        # a rate of 1e308 overflows the systems of the first step: they are
        # refused before any solve, the step names its time, and the error
        # line is all of stderr (no numpy warning text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dt = 0.25\nt_end = 1\nn_elems = 20\n{rate} = 1e308\n")
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "simulate", cfg,
                            tmp_path / "out", "--quiet")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "t=0.25" in lines[0]

    def test_failed_forced_rerun_marks_sub_stores(self, small_run, tmp_path,
                                                  monkeypatch):
        root, cfg, _ = small_run
        out = tmp_path / "sim"
        assert run_cli("simulate", cfg, out, "--quiet") == 0

        def boom(*args, **kwargs):
            raise StepError("injected failure")

        monkeypatch.setattr(seird_sim, "run_seird_amr", boom)
        assert run_cli("simulate", cfg, out, "--force", "--quiet") == 3
        model = tmp_path / "s.model.txt"
        for sub in ("adaptive", "projected"):
            assert run_cli("dmd", "fit", out / sub, model, "--field", "s",
                           "--rank", "2", "--quiet") == 3
        assert not model.exists()
        monkeypatch.undo()
        assert run_cli("simulate", cfg, out, "--force", "--quiet") == 0
        assert run_cli("dmd", "fit", out / "projected", model, "--field", "s",
                       "--rank", "2", "--quiet") == 0

    def test_interrupted_forced_rerun_leaves_stores_failed(self, small_run,
                                                           tmp_path,
                                                           monkeypatch):
        root, cfg, _ = small_run
        out = tmp_path / "sim"
        assert run_cli("simulate", cfg, out, "--quiet") == 0

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(seird_sim, "run_seird_amr", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("simulate", cfg, out, "--force", "--quiet")
        assert (out / ".failed").exists()
        assert run_cli("dmd", "fit", out / "projected", tmp_path / "s.model.txt",
                       "--field", "s", "--rank", "2", "--quiet") == 3

    @staticmethod
    def assert_no_store_readable(out, tmp_path):
        for sub in ("adaptive", "projected"):
            assert run_cli("dmd", "fit", out / sub, tmp_path / "s.model.txt",
                           "--field", "s", "--rank", "2", "--quiet") == 3
            assert run_cli("report", "qoi", out / sub, tmp_path / "q.csv",
                           "--quiet") == 3

    def test_interrupt_in_projected_write_leaves_both_stores_failed(
            self, small_run, tmp_path, monkeypatch):
        root, cfg, _ = small_run
        out = tmp_path / "sim"
        plain = fem.save_fields

        def interrupted(mesh, fields, path):
            if Path(path).parent.name == "projected":
                raise KeyboardInterrupt
            return plain(mesh, fields, path)

        monkeypatch.setattr(fem, "save_fields", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("simulate", cfg, out, "--quiet")
        monkeypatch.undo()
        assert (out / "adaptive" / "manifest.txt").exists()   # whole, yet marked
        self.assert_no_store_readable(out, tmp_path)

    def test_step_error_mid_run_leaves_both_stores_failed(self, small_run,
                                                          tmp_path,
                                                          monkeypatch):
        root, cfg, _ = small_run
        out = tmp_path / "sim"
        plain, calls = seird_sim.step, []

        def fails_on_step_5(state, params):
            calls.append(state.time)
            if len(calls) == 5:
                raise StepError("injected failure")
            return plain(state, params)

        monkeypatch.setattr(seird_sim, "step", fails_on_step_5)
        assert run_cli("simulate", cfg, out, "--quiet") == 3
        monkeypatch.undo()
        assert len(calls) == 5
        assert (out / "adaptive" / "mesh_0000.mesh.txt").exists()  # streamed
        self.assert_no_store_readable(out, tmp_path)

    def test_deterministic_artifacts(self, small_run, tmp_path):
        root, cfg, out = small_run
        out2 = tmp_path / "sim2"
        assert run_cli("simulate", cfg, out2, "--quiet") == 0
        a = (out / "projected" / "snap_0008.field.txt").read_bytes()
        b = (out2 / "projected" / "snap_0008.field.txt").read_bytes()
        assert a == b
        assert (out / "population_projected.csv").read_bytes() == \
               (out2 / "population_projected.csv").read_bytes()


class TestCliProjectAndDmd:
    def test_project_adaptive_store(self, small_run, tmp_path):
        root, cfg, out = small_run
        target = out / "projected" / "mesh_0000.mesh.txt"
        dest = tmp_path / "proj"
        assert run_cli("project", out / "adaptive", target, dest, "--quiet") == 0
        re_proj = store.read_store(dest)
        assert re_proj.is_uniform()
        ref = store.read_store(out / "projected")
        for a, b in zip(re_proj.entries, ref.entries):
            np.testing.assert_allclose(a.fields["s"], b.fields["s"], atol=1e-9)
        # projection preserves the mean of every field (integrate oracle)
        adaptive = store.read_store(out / "adaptive")
        for a, p in zip(adaptive.entries, re_proj.entries):
            for name in ("s", "e", "i"):
                donor_mean = fem.integrate(a.mesh, a.fields[name])
                proj_mean = fem.integrate(p.mesh, p.fields[name])
                assert proj_mean == pytest.approx(
                    donor_mean, abs=1e-10 + 1e-8 * abs(donor_mean))

    def test_project_and_report_qoi_reproduce_simulate(self, small_run,
                                                       tmp_path):
        # simulate, project and report qoi share one projection loop and one
        # population series, so their files agree byte for byte
        root, cfg, out = small_run
        dest = tmp_path / "proj"
        assert run_cli("project", out / "adaptive",
                       out / "projected" / "mesh_0000.mesh.txt", dest,
                       "--quiet") == 0
        names = {p.name for p in dest.iterdir()} - {"run_manifest.txt"}
        assert names == {p.name for p in (out / "projected").iterdir()}
        for name in names:
            assert (dest / name).read_bytes() == \
                   (out / "projected" / name).read_bytes(), name
        for sub in ("adaptive", "projected"):
            csv = tmp_path / f"{sub}.csv"
            assert run_cli("report", "qoi", out / sub, csv, "--quiet") == 0
            assert csv.read_bytes() == \
                   (out / f"population_{sub}.csv").read_bytes()

    def test_project_2d_store_near_1e200(self, tmp_path, capsys, rng):
        # the solve and the residual work in units of max|load|, so values
        # near 1e200 project like any others and report a finite residual
        donor = M.refine(M.build_structured_triangle_mesh([0, 1], [0, 1], 10, 10),
                         M.RefinementPlan(refine=frozenset(range(0, 200, 3))))
        target = M.build_structured_triangle_mesh([0, 1], [0, 1], 7, 9)
        M.save_mesh(target, tmp_path / "target.mesh.txt")
        u = rng.uniform(0.5, 1.0, donor.n_nodes)
        projected = {}
        for name, scale in (("plain", 1.0), ("huge", 1e200)):
            store.write_store(tmp_path / name,
                              [(Fraction(0), donor, {"u": scale * u})])
            assert run_cli("project", tmp_path / name, tmp_path / "target.mesh.txt",
                           tmp_path / f"{name}_proj") == 0
            said = capsys.readouterr().out
            residual = float(said.split("projection residual")[1].split()[0])
            assert residual <= 1e-12, said
            entry = store.read_store(tmp_path / f"{name}_proj").entries[0]
            projected[name] = entry.fields["u"]
        want = 1e200 * projected["plain"]
        assert np.max(np.abs(projected["huge"] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_report_errors_near_1e200(self, tmp_path, rng):
        # the norms are taken in units of the larger max: the etas of a
        # store of values near 1e200 are those of the unscaled store
        m = M.build_interval_mesh(0, 1, 30)
        u = rng.uniform(0.5, 1.0, (3, m.n_nodes))
        noise = 1e-3 * rng.normal(size=u.shape)
        etas = {}
        for name, scale in (("plain", 1.0), ("huge", 1e200)):
            for kind, values in (("truth", u), ("approx", u + noise)):
                store.write_store(tmp_path / f"{name}_{kind}", [
                    (Fraction(k), m, {"u": scale * v}) for k, v in enumerate(values)])
            csv = tmp_path / f"{name}.csv"
            assert run_cli("report", "errors", tmp_path / f"{name}_truth",
                           tmp_path / f"{name}_approx", csv, "--quiet") == 0
            etas[name] = np.array([float(line.split(",")[1])
                                   for line in csv.read_text().splitlines()[1:]])
        assert np.isfinite(etas["huge"]).all()
        np.testing.assert_allclose(etas["huge"], etas["plain"], rtol=1e-12)

    def test_report_qoi_near_the_float_limit(self, tmp_path, rng):
        # the populations are integrated in units of the largest |value|, a
        # power of two: a store of 2**1023 u writes the bytes of the store of u
        m = M.build_interval_mesh(0, 1, 30)
        u = rng.uniform(0.5, 1.0, (3, 5, m.n_nodes))
        written = {}
        for name, scale in (("plain", 1.0), ("huge", 2.0 ** 1023)):
            store.write_store(tmp_path / name, [
                (Fraction(k), m, dict(zip("seird", scale * v)))
                for k, v in enumerate(u)])
            csv = tmp_path / f"{name}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run_cli("report", "qoi", tmp_path / name, csv, "--quiet") == 0
            written[name] = csv.read_bytes()
        assert written["huge"] == written["plain"]

    def test_project_onto_gapped_target(self, small_run, tmp_path):
        # a 1-d target of two disjoint pieces has a block-diagonal mass matrix
        root, cfg, out = small_run
        target = M.SimplicialMesh(dim=1, nodes=[0.0, 0.25, 0.5, 0.75, 1.0],
                                  elements=[[3, 4], [0, 1], [1, 2]])
        M.save_mesh(target, tmp_path / "gapped.mesh.txt")
        dest = tmp_path / "proj"
        assert run_cli("project", out / "adaptive", tmp_path / "gapped.mesh.txt",
                       dest, "--quiet") == 0
        proj = store.read_store(dest)
        assert proj.entries[0].mesh.n_elems == 3
        for entry in proj.entries:
            assert all(np.all(np.isfinite(v)) for v in entry.fields.values())

    def test_fit_predict_report(self, small_run, tmp_path):
        root, cfg, out = small_run
        model_path = tmp_path / "s.dmd.txt"
        code = run_cli("dmd", "fit", out / "projected", model_path,
                       "--field", "s", "--rank", "3", "--quiet")
        assert code == 0
        model = dmd.load_model(model_path)
        assert model.rank == 3 and model.field_name == "s"

        pred = tmp_path / "pred"
        mesh_file = out / "projected" / "mesh_0000.mesh.txt"
        code = run_cli("dmd", "predict", model_path, pred, "--mesh", mesh_file,
                       "--until", "2.0", "--quiet")
        assert code == 0
        pstore = store.read_store(pred)
        assert len(pstore.entries) == 9

        csv = tmp_path / "err.csv"
        code = run_cli("report", "errors", out / "projected", pred, csv,
                       "--field", "s", "--train-end", "1.0", "--quiet")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "time,eta,regime"
        assert lines[-1].startswith("eta_F,")
        assert any(",prediction" in ln for ln in lines)
        assert any(",reconstruction" in ln for ln in lines)

    def test_rank_and_tau_conflict_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        code = run_cli("dmd", "fit", out / "projected", tmp_path / "m.dmd.txt",
                       "--field", "s", "--rank", "3", "--tau", "0.1", "--quiet")
        assert code == 2

    def test_rank_too_large_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        code = run_cli("dmd", "fit", out / "projected", tmp_path / "m.dmd.txt",
                       "--field", "s", "--rank", "99", "--quiet")
        assert code == 2

    def test_fit_on_non_uniform_store_exit_3(self, tmp_path, rng):
        m1 = M.build_interval_mesh(0, 1, 4)
        m2 = M.build_interval_mesh(0, 1, 5)
        snaps = [(Fraction(0), m1, {"u": rng.normal(size=m1.n_nodes)}),
                 (Fraction(1), m2, {"u": rng.normal(size=m2.n_nodes)})]
        store.write_store(tmp_path / "st", snaps)
        code = run_cli("dmd", "fit", tmp_path / "st", tmp_path / "m.dmd.txt",
                       "--field", "u", "--rank", "1", "--quiet")
        assert code == 3

    @pytest.mark.parametrize("times", [(5, 5, 5), (6, 5, 4)])
    def test_fit_on_times_that_do_not_increase_exit_3(self, tmp_path, rng, capsys,
                                                      times):
        # write_store refuses such times, so the manifest is edited after it
        m = M.build_interval_mesh(0, 1, 4)
        st_dir = store.write_store(tmp_path / "st", [
            (Fraction(k), m, {"u": rng.normal(size=m.n_nodes)}) for k in range(3)])
        (st_dir / "manifest.txt").write_text("".join(
            f"{k} {t} mesh_0000.mesh.txt snap_{k:04d}.field.txt\n"
            for k, t in enumerate(times)))
        code = run_cli("dmd", "fit", tmp_path / "st", tmp_path / "m.dmd.txt",
                       "--field", "u", "--rank", "1", "--quiet")
        assert code == 3
        err = capsys.readouterr().err
        assert "manifest.txt: line 2" in err and f"time {times[1]} does not follow" in err

    @pytest.mark.parametrize("case", ["more_nodes", "moved_nodes", "remeshed_in_time"])
    def test_report_on_different_meshes_exit_3(self, tmp_path, rng, capsys, case):
        m, finer = M.build_interval_mesh(0, 1, 4), M.build_interval_mesh(0, 1, 5)
        moved = M.SimplicialMesh(dim=1, nodes=m.nodes ** 2, elements=m.elements)
        meshes = {"more_nodes": ([m, m], [finer, finer]),
                  "moved_nodes": ([m, m], [moved, moved]),
                  "remeshed_in_time": ([m, finer], [m, finer])}[case]
        for name, seq in zip(("truth", "approx"), meshes):
            store.write_store(tmp_path / name, [
                (Fraction(k), msh, {"s": rng.normal(size=msh.n_nodes)})
                for k, msh in enumerate(seq)])
        code = run_cli("report", "errors", tmp_path / "truth", tmp_path / "approx",
                       tmp_path / "e.csv", "--field", "s", "--quiet")
        assert code == 3
        assert "different meshes; project first" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_report_identical_stores_zero_error(self, small_run, tmp_path):
        root, cfg, out = small_run
        csv = tmp_path / "zero.csv"
        code = run_cli("report", "errors", out / "projected", out / "projected",
                       csv, "--field", "s", "--quiet")
        assert code == 0
        assert csv.read_text().splitlines()[-1] == "eta_F,0"

    def test_report_qoi(self, small_run, tmp_path):
        root, cfg, out = small_run
        csv = tmp_path / "pop.csv"
        assert run_cli("report", "qoi", out / "projected", csv, "--quiet") == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "time,value"
        assert lines[1].split(",")[1] == "1"

    def test_predict_explicit_times(self, small_run, tmp_path):
        root, cfg, out = small_run
        model_path = tmp_path / "m.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model_path,
                       "--field", "e", "--rank", "2", "--quiet") == 0
        pred = tmp_path / "pred_times"
        mesh_file = out / "projected" / "mesh_0000.mesh.txt"
        assert run_cli("dmd", "predict", model_path, pred, "--mesh", mesh_file,
                       "--times", "0.5,1.25,3", "--quiet") == 0
        entries = store.read_store(pred).entries
        assert [e.time_str for e in entries] == ["0.5", "1.25", "3"]

    @pytest.mark.parametrize("when", [("--times", "a,b"), ("--until", "inf"),
                                      ("--until", "nan"), ("--times", "5,5,5"),
                                      ("--times", "6,5,4")])
    def test_predict_bad_time_exit_2(self, small_run, tmp_path, when):
        root, cfg, out = small_run
        model_path = tmp_path / "m.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model_path,
                       "--field", "e", "--rank", "2", "--quiet") == 0
        pred = tmp_path / "pred"
        assert run_cli("dmd", "predict", model_path, pred, "--mesh",
                       out / "projected" / "mesh_0000.mesh.txt", *when,
                       "--quiet") == 2
        assert not pred.exists()

    def test_predict_until_beyond_the_ceiling_exit_2(self, small_run, tmp_path):
        # 4.4e10 times on a 1e-9 grid: refused before any time is built
        root, cfg, out = small_run
        model = tmp_path / "e.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model, "--field", "e",
                       "--rank", "2", "--quiet") == 0
        head, rest = model.read_text().split("\n", 1)
        model.write_text(" ".join([*head.split()[:3], "1e-09", *head.split()[4:]])
                         + "\n" + rest)
        pred = tmp_path / "pred"
        started = time.monotonic()
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "dmd", "predict", model,
                            pred, "--mesh",
                            out / "projected" / "mesh_0000.mesh.txt",
                            "--until", "44", "--quiet", timeout=10)
        assert time.monotonic() - started < 5
        assert proc.returncode == 2, proc.stderr
        assert "e.dmd.txt" in proc.stderr
        assert str(pipeline_cli.MAX_PREDICT_TIMES) in proc.stderr
        assert not pred.exists()

    def test_predict_overflow_exit_3_leaves_nothing(self, small_run, tmp_path,
                                                    capsys):
        # omega = 500 gives e^500 ~ 1e217 at t = 1 and overflows at t = 2
        root, cfg, out = small_run
        model = tmp_path / "e.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model, "--field", "e",
                       "--rank", "2", "--quiet") == 0
        lines = model.read_text().splitlines()
        lines[1 + int(lines[0].split()[1])] = "500 0"     # the first omega
        model.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred"
        argv = ("dmd", "predict", model, pred, "--mesh",
                out / "projected" / "mesh_0000.mesh.txt", "--times", "0,1,2",
                "--quiet")
        proc = fresh_python("-m", "amrdmd.pipeline_cli", *argv)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()       # no numpy warning text
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "t=2 " in lines[0]
        assert not pred.exists()
        pred.mkdir()
        (pred / "kept.txt").write_text("")
        assert run_cli(*argv) == 4          # an existing output comes first

    @pytest.mark.parametrize("command,flag", [("fit", "--t-start"),
                                              ("fit", "--t-end"),
                                              ("errors", "--train-end")])
    def test_nan_flag_exit_2_naming_it(self, small_run, tmp_path, capsys,
                                       command, flag):
        root, cfg, out = small_run
        dest = tmp_path / "out.txt"
        if command == "fit":
            argv = ("dmd", "fit", out / "projected", dest, "--field", "s",
                    "--rank", "2")
        else:
            argv = ("report", "errors", out / "projected", out / "projected",
                    dest, "--field", "s")
        assert run_cli(*argv, flag, "nan", "--quiet") == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not dest.exists()

    def test_power_iters_beyond_the_ceiling_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        model = tmp_path / "e.dmd.txt"
        started = time.monotonic()
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "dmd", "fit",
                            out / "projected", model, "--field", "e", "--rank",
                            "2", "--svd", "randomized", "--power-iters",
                            "1000000000", "--quiet", timeout=10)
        assert time.monotonic() - started < 5
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(linalg.MAX_POWER_ITERS) in proc.stderr
        assert not model.exists()

    @pytest.mark.parametrize("knob", [("--oversample", "-5"),
                                      ("--power-iters", "-1")])
    def test_fit_negative_sketch_knob_exit_2(self, small_run, tmp_path, knob):
        root, cfg, out = small_run
        model_path = tmp_path / "m.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model_path,
                       "--field", "e", "--rank", "2", "--svd", "randomized",
                       *knob, "--quiet") == 2
        assert not model_path.exists()

    @pytest.mark.parametrize("bad", ["x 0", "1 zz"])
    def test_malformed_manifest_line_exit_3(self, tmp_path, rng, capsys, bad):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {"u": rng.normal(size=m.n_nodes)})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        lines = (st / "manifest.txt").read_text().splitlines()
        lines[1] = f"{bad} mesh_0000.mesh.txt snap_0001.field.txt"
        (st / "manifest.txt").write_text("\n".join(lines) + "\n")
        assert run_cli("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "u",
                       "--rank", "1", "--quiet") == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "manifest.txt" in err

    @pytest.mark.parametrize("column,name", [
        (2, "{abs}/mesh_0000.mesh.txt"),            # absolute path
        (3, "./snap_0001.field.txt"),                # path separator
        (3, "../st/snap_0001.field.txt"),            # parent directory
        (2, ".."),
    ], ids=["absolute", "separator", "parent_path", "parent_name"])
    def test_manifest_file_outside_store_exit_3(self, tmp_path, rng, capsys,
                                                column, name):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        lines = (st / "manifest.txt").read_text().splitlines()
        parts = lines[1].split()
        parts[column] = name.format(abs=st.resolve())
        lines[1] = " ".join(parts)
        (st / "manifest.txt").write_text("\n".join(lines) + "\n")
        csv = tmp_path / "q.csv"
        assert run_cli("report", "qoi", st, csv, "--quiet") == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "manifest.txt" in err and "leaves the store" in err
        assert not csv.exists()

    def test_extra_mesh_rows_exit_3(self, tmp_path, rng, capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        with open(st / "mesh_0000.mesh.txt", "a") as fh:
            fh.write("0 1\n")
        csv = tmp_path / "q.csv"
        assert run_cli("report", "qoi", st, csv, "--quiet") == 3
        assert "mesh_0000.mesh.txt" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("snap,row", [("snap_0001.field.txt", "1 2 3 4 5\n"),
                                          ("snap_0002.field.txt", "garbage row\n")])
    def test_extra_field_rows_exit_3(self, tmp_path, rng, capsys, snap, row):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        with open(st / snap, "a") as fh:
            fh.write(row)
        model = tmp_path / "s.dmd.txt"
        assert run_cli("dmd", "fit", st, model, "--field", "s", "--rank", "1",
                       "--quiet") == 3
        assert snap in capsys.readouterr().err
        assert not model.exists()

    def test_repeated_manifest_index_exit_3(self, tmp_path, rng, capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        lines = (st / "manifest.txt").read_text().splitlines()
        lines[2] = "1" + lines[2][1:]
        (st / "manifest.txt").write_text("\n".join(lines) + "\n")
        csv = tmp_path / "q.csv"
        assert run_cli("report", "qoi", st, csv, "--quiet") == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "manifest.txt" in err
        assert not csv.exists()

    def test_repeated_field_name_exit_3(self, small_run, tmp_path, capsys):
        root, cfg, out = small_run
        st = tmp_path / "st"
        st.mkdir()
        for f in (out / "projected").iterdir():
            (st / f.name).write_bytes(f.read_bytes())
        snap = st / "snap_0003.field.txt"
        head, names, rest = snap.read_text().split("\n", 2)
        snap.write_text(head + "\n" + names.replace("e", "s", 1) + "\n" + rest)
        model = tmp_path / "s.dmd.txt"
        assert run_cli("dmd", "fit", st, model, "--field", "s", "--rank", "2",
                       "--quiet") == 3
        assert "snap_0003.field.txt" in capsys.readouterr().err
        assert not model.exists()

    def test_non_finite_mesh_coordinate_exit_3(self, tmp_path, rng):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {"u": rng.normal(size=m.n_nodes)})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        mesh_file = st / "mesh_0000.mesh.txt"
        lines = mesh_file.read_text().splitlines()
        lines[2] = "nan"
        mesh_file.write_text("\n".join(lines) + "\n")
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "dmd", "fit", st,
                            tmp_path / "m.dmd.txt", "--field", "u", "--rank",
                            "1", "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "mesh_0000.mesh.txt" in proc.stderr

    def test_mesh_index_out_of_range_exit_3(self, tmp_path, rng, capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {"u": rng.normal(size=m.n_nodes)})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        mesh_file = st / "mesh_0000.mesh.txt"
        lines = mesh_file.read_text().splitlines()
        lines[-1] = f"3 {m.n_nodes}"
        mesh_file.write_text("\n".join(lines) + "\n")
        assert run_cli("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "u",
                       "--rank", "1", "--quiet") == 3
        assert "mesh_0000.mesh.txt" in capsys.readouterr().err

    def test_degenerate_mesh_element_exit_3_naming_the_file(self, tmp_path, rng,
                                                           capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {"u": rng.normal(size=m.n_nodes)})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        mesh_file = st / "mesh_0000.mesh.txt"
        lines = mesh_file.read_text().splitlines()
        lines[2] = lines[1]                 # node 1 onto node 0
        mesh_file.write_text("\n".join(lines) + "\n")
        assert run_cli("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "u",
                       "--rank", "1", "--quiet") == 3
        err = capsys.readouterr().err
        assert "mesh_0000.mesh.txt" in err and "non-positive measure" in err

    def test_read_only_commands_load_no_scipy(self, small_run, tmp_path):
        root, cfg, out = small_run          # written by another process
        proj = out / "projected"
        model = tmp_path / "s.dmd.txt"
        pred = tmp_path / "pred"
        commands = [
            ["dmd", "fit", proj, model, "--field", "s", "--rank", "2"],
            ["dmd", "predict", model, pred, "--mesh", proj / "mesh_0000.mesh.txt",
             "--until", "2"],
            ["report", "errors", proj, pred, tmp_path / "err.csv", "--field", "s"],
            ["report", "qoi", proj, tmp_path / "pop.csv"],
        ]
        script = ("import json, sys\n"
                  "from amrdmd import pipeline_cli\n"
                  "codes = [pipeline_cli.main(argv + ['--quiet'])\n"
                  "         for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, sorted(m for m in sys.modules\n"
                  "                                if m.startswith('scipy'))]))\n")
        proc = fresh_python("-c", script,
                            json.dumps([[str(a) for a in c] for c in commands]))
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout)
        assert codes == [0, 0, 0, 0]
        assert scipy_modules == []

    def test_seird_sim_loads_no_decomposition_code(self):
        proc = fresh_python("-c", "import sys, amrdmd.seird_sim\n"
                                  "print(sorted({'amrdmd.dmd', 'amrdmd.linalg'}\n"
                                  "             & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def modules_loaded(argv, prefix):
        """Exit code of one command run in a fresh interpreter, and the
        modules starting with prefix that it loaded."""
        script = ("import json, sys\n"
                  "from amrdmd import pipeline_cli\n"
                  "code = pipeline_cli.main(sys.argv[2:])\n"
                  "print(json.dumps([code, sorted(m for m in sys.modules\n"
                  "                               if m.startswith(sys.argv[1]))]))\n")
        proc = fresh_python("-c", script, prefix, *argv)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_demo_indicator_loads_no_scipy(self, tmp_path):
        code, modules = self.modules_loaded(
            ["demo", "indicator", tmp_path / "demo", "--quiet"], "scipy")
        assert code == 0
        assert modules == []

    def test_simulate_loads_no_scipy_sparse(self, small_run, tmp_path):
        # nor any other scipy module but the LAPACK extension of the 1-d solves
        root, cfg, out = small_run
        code, modules = self.modules_loaded(
            ["simulate", cfg, tmp_path / "sim", "--quiet"], "scipy")
        assert code == 0
        assert modules == ["scipy.linalg._flapack"]

    def test_project_1d_loads_only_the_lapack_module(self, small_run, tmp_path):
        root, cfg, out = small_run
        code, modules = self.modules_loaded(
            ["project", out / "adaptive", out / "projected" / "mesh_0000.mesh.txt",
             tmp_path / "p", "--quiet"], "scipy")
        assert code == 0
        assert modules == ["scipy.linalg._flapack"]

    def test_report_missing_field_exit_3(self, small_run, tmp_path, capsys):
        root, cfg, out = small_run
        code = run_cli("report", "errors", out / "projected", out / "projected",
                       tmp_path / "x.csv", "--field", "zz", "--quiet")
        assert code == 3
        assert "snap_0000.field.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["trailing_rows", "t0_nan", "header_only"])
    def test_damaged_model_exit_2(self, small_run, tmp_path, damage):
        # dt_o <= 0 is tested in-process, where a missing check cannot hang
        root, cfg, out = small_run
        model = tmp_path / "s.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model, "--field", "s",
                       "--rank", "2", "--quiet") == 0
        head, rest = model.read_text().split("\n", 1)
        if damage == "trailing_rows":
            rest += "1 2\n3 4\n"
        elif damage == "header_only":
            rest = ""
        else:
            head = " ".join([*head.split()[:2], "nan", *head.split()[3:]])
        model.write_text(head + "\n" + rest)
        proc = fresh_python("-m", "amrdmd.pipeline_cli", "dmd", "predict", model,
                            tmp_path / "pred", "--mesh",
                            out / "projected" / "mesh_0000.mesh.txt",
                            "--until", "2", "--quiet")
        assert proc.returncode == 2
        assert "s.dmd.txt" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "pred").exists()

    def test_predict_mesh_size_mismatch_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        model_path = tmp_path / "m2.dmd.txt"
        assert run_cli("dmd", "fit", out / "projected", model_path,
                       "--field", "e", "--rank", "2", "--quiet") == 0
        wrong = M.build_interval_mesh(0, 1, 3)
        from amrdmd import mesh as mesh_mod
        mesh_mod.save_mesh(wrong, tmp_path / "wrong.mesh.txt")
        code = run_cli("dmd", "predict", model_path, tmp_path / "p",
                       "--mesh", tmp_path / "wrong.mesh.txt",
                       "--until", "1", "--quiet")
        assert code == 2

    def test_report_no_common_times_exit_3(self, small_run, tmp_path, rng):
        root, cfg, out = small_run
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(999), m, {"s": rng.normal(size=m.n_nodes)})]
        store.write_store(tmp_path / "other", snaps)
        code = run_cli("report", "errors", out / "projected", tmp_path / "other",
                       tmp_path / "x.csv", "--field", "s", "--quiet")
        assert code == 3

    @pytest.mark.parametrize("truth_text,approx_text", [
        (None, ["0.000e+00", "2.500e-01", "5.000e-01"]),
        (["0e0", "2.5E-1", "0.50"], None),
    ], ids=["approx_scientific", "truth_scientific"])
    def test_report_pairs_times_by_value(self, tmp_path, rng, truth_text,
                                         approx_text):
        m = M.build_interval_mesh(0, 1, 4)
        times = [Fraction(k, 4) for k in range(3)]
        truth = [rng.normal(size=m.n_nodes) for _ in times]
        for name, text, scale in (("truth", truth_text, 1.0),
                                  ("approx", approx_text, 1.5)):
            store.write_store(tmp_path / name, [
                (t if text is None else text[k], m, {"s": scale * truth[k]})
                for k, t in enumerate(times)])
        assert run_cli("report", "errors", tmp_path / "truth", tmp_path / "approx",
                       tmp_path / "e.csv", "--field", "s", "--quiet") == 0
        rows = [line.split(",") for line in
                (tmp_path / "e.csv").read_text().splitlines()[1:-1]]
        want = truth_text or [store.fraction_to_decimal(t) for t in times]
        assert [r[0] for r in rows] == want
        np.testing.assert_allclose([float(r[1]) for r in rows], 0.5, rtol=1e-14)

    def test_report_qoi_missing_compartments_exit_3(self, tmp_path, rng):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(0), m, {"s": rng.normal(size=m.n_nodes)})]
        store.write_store(tmp_path / "st", snaps)
        code = run_cli("report", "qoi", tmp_path / "st", tmp_path / "q.csv",
                       "--quiet")
        assert code == 3

    def test_demo_indicator_via_cli(self, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("demo", "indicator", out, "--quiet") == 0
        report = [line.split(" = ")
                  for line in (out / "report.txt").read_text().splitlines()]
        assert [k for k, _ in report] == [
            f"{name}_{what}" for name in ("donor", "structured", "unstructured")
            for what in ("elements", "nodes", "inf_norm")]
        values = dict(report)
        assert {k: int(v) for k, v in values.items() if not k.endswith("norm")} == {
            "donor_elements": 1672, "donor_nodes": 857,
            "structured_elements": 12800, "structured_nodes": 6561,
            "unstructured_elements": 20000, "unstructured_nodes": 10201}
        for key, norm in (("donor_inf_norm", 1.0000000000000002),
                          ("structured_inf_norm", 1.000000000000036),
                          ("unstructured_inf_norm", 1.0048854385611701)):
            assert float(values[key]) == pytest.approx(norm, abs=1e-12)
        assert (out / "donor.mesh.txt").exists()
        assert (out / "unstructured.field.txt").exists()

    def test_demo_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # On a one-core machine OpenBLAS runs one thread under both settings,
        # so there this test passes whatever the code does.
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            proc = fresh_python("-m", "amrdmd.pipeline_cli", "demo", "indicator",
                                out, "--quiet", OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append({p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "run_manifest.txt"})
        assert len(outs[0]) == 7
        assert outs[0] == outs[1]

    def test_predict_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # On a one-core machine OpenBLAS runs one thread under both settings,
        # so there this test passes whatever the code does. The reference
        # mesh has 501 nodes: threaded BLAS splits products that large.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_end = 4.0\nn_elems = 125\ninitial_uniform_levels = 2\n")
        sim, model = tmp_path / "sim", tmp_path / "e.dmd.txt"
        assert run_cli("simulate", cfg, sim, "--quiet") == 0
        assert run_cli("dmd", "fit", sim / "projected", model, "--field", "e",
                       "--rank", "15", "--quiet") == 0
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            proc = fresh_python("-m", "amrdmd.pipeline_cli", "dmd", "predict",
                                model, out, "--mesh",
                                sim / "projected" / "mesh_0000.mesh.txt",
                                "--until", "10", "--quiet",
                                OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append({p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "run_manifest.txt"})
        assert len(outs[0]) == 43           # 41 snapshots, a mesh, a manifest
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("arg,code", [("--help", 0), ("--no-such-option", 2)])
    def test_pipeline_script_options_create_nothing(self, tmp_path, arg, code):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_seird_pipeline.py"
        proc = fresh_python(script, arg, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "usage:" in proc.stdout + proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_pipeline_script_table_matches_the_error_reports(self, tmp_path):
        """Six rows, and each 'eta at day 44' is the day-44 row of its
        errors_<c>.csv to the printed digits."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_seird_pipeline.py"
        proc = fresh_python(script, tmp_path, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        rows = [r for r in rows if len(r) == 3 and r[0] in tuple("seirdc")]
        assert [r[0] for r in rows] == list("seirdc")
        for c, _, eta44 in rows:
            day44 = [line.split(",") for line in
                     (tmp_path / f"errors_{c}.csv").read_text().splitlines()
                     if line.startswith("44,")]
            assert len(day44) == 1
            assert f"{float(day44[0][1]):.3e}" == eta44

    def test_rank_sweep_script(self, small_run, tmp_path, rng):
        root, cfg, out = small_run
        store.write_store(tmp_path / "adaptive", [
            (Fraction(k), m, {"s": rng.normal(size=m.n_nodes)})
            for k, m in enumerate(M.build_interval_mesh(0, 1, n) for n in (4, 5, 4))])
        script = Path(__file__).resolve().parents[1] / "scripts" / "rank_sweep.py"
        proc = fresh_python(script, out / "projected", "s", "2", "4", "99")
        assert proc.returncode == 0, proc.stderr
        table = [line.split() for line in proc.stdout.splitlines()]
        assert table[0] == ["rank", "eta_F"]
        assert [row[0] for row in table[1:]] == ["2", "4", "99"]
        assert float(table[2][1]) < float(table[1][1]) < 1
        assert "skipped" in proc.stdout
        for argv, code in (((tmp_path / "adaptive", "s"), 3),
                           ((out / "projected", "zz"), 3),
                           ((out / "projected", "s", "0"), 2)):
            proc = fresh_python(script, *argv)
            assert proc.returncode == code, proc.stderr
            assert proc.stderr.startswith("error: "), proc.stderr
            assert "Traceback" not in proc.stderr
        # time bounds are exact: on a store sampled every 0.1, --t-end 0.3
        # keeps the snapshot at 0.3, so rank 3 has its 3 snapshot pairs
        msh = M.build_interval_mesh(0, 1, 8)
        store.write_store(tmp_path / "tenths", [
            (Fraction(k, 10), msh, {"s": rng.normal(size=msh.n_nodes)})
            for k in range(8)])
        proc = fresh_python(script, tmp_path / "tenths", "s", "3", "--t-end", "0.3")
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == ["rank", "3"]
        assert "skipped" not in proc.stdout
        proc = fresh_python(script, tmp_path / "tenths", "s", "--t-start", "nan")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "nan" in proc.stderr

    def test_indicator_demo_script(self, tmp_path):
        script = (Path(__file__).resolve().parents[1] / "scripts"
                  / "run_indicator_demo.py")
        proc = fresh_python(script, tmp_path / "demo")
        assert proc.returncode == 0, proc.stderr
        assert "donor_elements = 1672" in proc.stdout
        report = (tmp_path / "demo" / "report.txt").read_text()
        assert report.splitlines()[0] == "donor_elements = 1672"

    def test_usage_error_exit_2(self):
        assert run_cli("dmd", "fit") == 2

    def test_malformed_mesh_file_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        bad = tmp_path / "bad.mesh.txt"
        bad.write_text("not a mesh\n")
        code = run_cli("project", out / "adaptive", bad, tmp_path / "p", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("command", ["project", "dmd predict"])
    @pytest.mark.parametrize("defect", ["orphan_node", "no_elements"])
    def test_mesh_not_made_of_its_elements_exit_2(self, small_run, tmp_path,
                                                  capsys, recwarn, command,
                                                  defect, rng):
        # refused while the file is read: before any output exists, and
        # before a mass matrix with an empty row can be assembled
        root, cfg, out = small_run
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        nodes = [f"{x!r} {y!r}" for x, y in m.nodes.tolist()]
        elems = [" ".join(map(str, e)) for e in m.elements.tolist()]
        if defect == "orphan_node":
            nodes.append("0.5 0.25")
        else:
            elems = []
        bad = tmp_path / "bad.mesh.txt"
        bad.write_text("\n".join([f"2 {len(nodes)} {len(elems)}", *nodes,
                                  *elems]) + "\n")
        if command == "project":
            store.write_store(tmp_path / "st2", [
                (Fraction(k), m, {"u": rng.normal(size=m.n_nodes)}) for k in range(2)])
            argv = ("project", tmp_path / "st2", bad, tmp_path / "out")
        else:
            model = tmp_path / "s.dmd.txt"
            assert run_cli("dmd", "fit", out / "projected", model, "--field", "s",
                           "--rank", "2", "--quiet") == 0
            argv = ("dmd", "predict", model, tmp_path / "out", "--mesh", bad,
                    "--until", "1")
        capsys.readouterr()
        recwarn.clear()
        assert run_cli(*argv, "--quiet") == 2
        err = capsys.readouterr().err
        assert f"malformed mesh file {bad}" in err
        assert "Warning" not in err and not recwarn.list
        assert not (tmp_path / "out").exists()


def five_field_store(path, rng, n_snaps=3):
    m = M.build_interval_mesh(0, 1, 4)
    return store.write_store(path, [
        (Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                          for c in ("s", "e", "i", "r", "d")})
        for k in range(n_snaps)])


def edit_rows(field_file, edit):
    """Rewrite the node rows of a field file as edit(list of row texts)."""
    head, names, *rows = field_file.read_text().splitlines()
    field_file.write_text("\n".join([head, names, *edit(rows)]) + "\n")


def decimal_time_store(path, rng, steps, unit):
    """A one-field store at the times k * unit for k in steps (unit a
    decimal string), written as exact decimals."""
    m = M.build_interval_mesh(0, 1, 4)
    return store.write_store(path, [(k * Fraction(unit), m,
                                     {"u": rng.uniform(size=m.n_nodes)})
                                    for k in steps])


class TestExactTimes:
    """Times and time flags compare as the exact decimals they are, at any
    scale: no absolute slack widens a window or a grid."""

    def fit(self, st, tmp_path, *flags):
        return run_cli("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "u",
                       "--rank", "1", "--force", *flags)

    def test_gaps_are_compared_relative_to_the_first(self, tmp_path, rng):
        gapped = decimal_time_store(tmp_path / "gapped", rng, [0, 1, 3, 4, 6, 7],
                                    "1e-10")
        assert self.fit(gapped, tmp_path, "--quiet") == 3
        uniform = decimal_time_store(tmp_path / "uniform", rng, range(8), "1e-10")
        assert self.fit(uniform, tmp_path, "--quiet") == 0

    @pytest.mark.parametrize("flags,window", [
        (("--t-end", "3e-10"), "[0, 3e-10]"),
        (("--t-start", "5e-10"), "[5e-10, 7e-10]")])
    def test_fit_window_is_exact(self, tmp_path, rng, capsys, flags, window):
        st = decimal_time_store(tmp_path / "st", rng, range(8), "1e-10")
        assert self.fit(st, tmp_path, *flags) == 0
        assert f"on t in {window}" in capsys.readouterr().out

    def test_fit_window_keeps_its_end_on_a_decimal_grid(self, tmp_path, rng, capsys):
        st = decimal_time_store(tmp_path / "st", rng, range(6), "0.1")
        assert self.fit(st, tmp_path, "--t-end", "0.3") == 0
        assert "on t in [0, 0.3]" in capsys.readouterr().out

    @pytest.mark.parametrize("steps,unit,t_start,until,n", [
        (range(8), "1e-10", "0", "5e-10", 6),
        (range(11), "0.1", "0.7", "1", 4)])
    def test_predict_until_is_exact(self, tmp_path, rng, steps, unit, t_start,
                                    until, n):
        # 0.8 - 0.7 rounds above 0.1 in binary: the model steps by 0.1
        st = decimal_time_store(tmp_path / "st", rng, steps, unit)
        assert self.fit(st, tmp_path, "--t-start", t_start, "--quiet") == 0
        pred = tmp_path / "pred"
        assert run_cli("dmd", "predict", tmp_path / "m.dmd.txt", pred, "--mesh",
                       st / "mesh_0000.mesh.txt", "--until", until, "--quiet") == 0
        times = [Fraction(e.time_str) for e in store.read_store(pred).entries]
        assert times == [Fraction(t_start) + k * Fraction(unit) for k in range(n)]

    def test_train_end_is_exact(self, tmp_path, rng):
        st = decimal_time_store(tmp_path / "st", rng, range(8), "1e-10")
        out = tmp_path / "eta.csv"
        assert run_cli("report", "errors", st, st, out, "--field", "u",
                       "--train-end", "3e-10", "--quiet") == 0
        regimes = [row.split(",")[2] for row in out.read_text().splitlines()[1:-1]]
        assert regimes == ["reconstruction"] * 4 + ["prediction"] * 4


class TestReadContract:
    """A command opens only the snapshots in its window and converts only
    the columns it uses; every file it opens is shape-checked whole."""

    def test_ragged_rows_exit_3_for_a_one_column_read(self, tmp_path, rng,
                                                      capsys):
        st = five_field_store(tmp_path / "st", rng)

        def ragged(rows):   # same number of values, one moved a row up
            first, second = rows[0].split(), rows[1].split()
            return [" ".join(first + second[-1:]), " ".join(second[:-1]),
                    *rows[2:]]

        edit_rows(st / "snap_0001.field.txt", ragged)
        model = tmp_path / "s.dmd.txt"
        assert run_cli("dmd", "fit", st, model, "--field", "s", "--rank", "1",
                       "--quiet") == 3
        assert "snap_0001.field.txt" in capsys.readouterr().err
        assert not model.exists()

    def test_nan_fails_only_the_commands_that_use_it(self, tmp_path, rng):
        st = five_field_store(tmp_path / "st", rng)

        def nan_in_e(rows):
            values = rows[2].split()
            values[1] = "nan"                   # columns are s e i r d
            return [*rows[:2], " ".join(values), *rows[3:]]

        edit_rows(st / "snap_0001.field.txt", nan_in_e)
        fit = ("dmd", "fit", st, tmp_path / "m.dmd.txt", "--rank", "1",
               "--force", "--quiet")
        assert run_cli(*fit, "--field", "s") == 0
        assert run_cli(*fit, "--field", "e") == 3
        assert run_cli("report", "qoi", st, tmp_path / "q.csv", "--quiet") == 3

    def test_damaged_file_outside_the_window_is_not_opened(self, tmp_path, rng):
        st = five_field_store(tmp_path / "st", rng, n_snaps=4)
        edit_rows(st / "snap_0000.field.txt", lambda rows: rows[:2])
        fit = ("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "s",
               "--rank", "1", "--force", "--quiet")
        assert run_cli(*fit) == 3
        assert run_cli(*fit, "--t-start", "1") == 0

    @pytest.mark.parametrize("damage", ["trailing_row", "missing_file",
                                        "then_bad_manifest"])
    def test_first_fault_in_manifest_order_is_named(self, tmp_path, rng,
                                                    capsys, damage):
        # snap_0020 holds the first fault; snap_0030, and manifest line 39
        # with then_bad_manifest, hold later ones
        st = five_field_store(tmp_path / "st", rng, n_snaps=40)
        with open(st / "snap_0030.field.txt", "a") as fh:
            fh.write("0 0\n")
        if damage == "missing_file":
            (st / "snap_0020.field.txt").unlink()
        else:
            with open(st / "snap_0020.field.txt", "a") as fh:
                fh.write("garbage row\n")
        if damage == "then_bad_manifest":
            lines = (st / "manifest.txt").read_text().splitlines()
            lines[38] = "x 0 mesh_0000.mesh.txt snap_0038.field.txt"
            (st / "manifest.txt").write_text("\n".join(lines) + "\n")
        assert run_cli("report", "qoi", st, tmp_path / "q.csv", "--quiet") == 3
        assert "snap_0020.field.txt" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           mesh_of=st.lists(st.integers(0, 2), min_size=1, max_size=8),
           n_meshes=st.integers(2, 3),
           fields=st.none() | st.lists(st.sampled_from(["s", "e", "i", "x"]),
                                       unique=True),
           t_start=st.none() | st.tuples(
               st.integers(-1, 9), st.sampled_from([0, 5e-10, -5e-10, 2e-9, -2e-9])
           ).map(lambda q: q[0] / 4 + q[1]),
           t_end=st.none() | st.tuples(
               st.integers(-1, 9), st.sampled_from([0, 5e-10, -5e-10, 2e-9, -2e-9])
           ).map(lambda q: q[0] / 4 + q[1]))
    @example(seed=1, mesh_of=[0, 1, 0, 2], n_meshes=3, fields=["e"],
             t_start=0.5, t_end=0.5)                        # one snapshot
    @example(seed=2, mesh_of=[0, 1, 0, 1], n_meshes=2, fields=None,
             t_start=0.6, t_end=0.7)                        # none
    def test_matches_the_full_read_filtered(self, seed, mesh_of, n_meshes,
                                            fields, t_start, t_end):
        rng = np.random.default_rng(seed)
        meshes = [M.build_interval_mesh(0, 1, n) for n in (3, 6, 4)[:n_meshes]]
        snaps = [(Fraction(k, 4), meshes[j % n_meshes],
                  {c: rng.normal(size=meshes[j % n_meshes].n_nodes)
                   for c in ("s", "e", "i")})
                 for k, j in enumerate(mesh_of)]
        with tempfile.TemporaryDirectory() as tmp:
            root = store.write_store(Path(tmp) / "st", snaps)
            full = store.read_store(root)
            part = store.read_store(root, fields, t_start, t_end)
        expected = [e for e in full.entries      # compared exactly
                    if (t_start is None or Fraction(e.time_str) >= t_start)
                    and (t_end is None or Fraction(e.time_str) <= t_end)]
        assert [(e.index, e.time_str, e.mesh_file) for e in part.entries] == \
               [(e.index, e.time_str, e.mesh_file) for e in expected]
        # snapshots share a mesh object exactly when they share a mesh file
        for a in part.entries:
            for b in part.entries:
                assert (a.mesh is b.mesh) == (a.mesh_file == b.mesh_file)
        for p, f in zip(part.entries, expected):
            names = [c for c in f.fields if fields is None or c in fields]
            assert list(p.fields) == names
            for c in names:
                assert p.fields[c].tobytes() == f.fields[c].tobytes()


class TestStoreFanOut:
    """write_store forks a child for each full batch of field files as the
    snapshots arrive, and read_store reads them in one process. Here the
    affinity mask is faked to two CPUs, so children are forked on any
    machine, and compared with the in-process write of a faked one-CPU
    mask."""

    N_SNAPS = 40
    BATCH = 24          # snapshots per batch under small_batches

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    @pytest.fixture
    def small_batches(self, monkeypatch):
        """A batch closes after BATCH of the snapshots below: they cycle
        through meshes of 13, 18 and 10 nodes and carry two fields."""
        monkeypatch.setattr(store, "_BATCH_VALUES", (13 + 18 + 10) * 2 * self.BATCH // 3)

    def snapshots(self, rng, n=N_SNAPS):
        meshes = [M.build_interval_mesh(0, 1, n) for n in (12, 17, 9)]
        return [(Fraction(k, 4), meshes[k % 3],
                 {"u": rng.normal(size=meshes[k % 3].n_nodes),
                  "v": rng.normal(size=meshes[k % 3].n_nodes) * 1e-300})
                for k in range(n)]

    @staticmethod
    def contents(st):
        return {p.name: p.read_bytes() for p in sorted(st.iterdir())}

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def written(self, tmp_path, rng, monkeypatch):
        snaps = self.snapshots(rng)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            store.write_store(tmp_path / "serial", snaps)
        return snaps, tmp_path / "serial"

    @pytest.fixture
    def live(self, monkeypatch):
        """Children alive after each fork and each reap of this process."""
        plain_fork, plain_wait, counts = os.fork, os.waitpid, [0]

        def fork():
            pid = plain_fork()
            if pid:
                counts.append(counts[-1] + 1)
            return pid

        def waitpid(pid, options):
            got = plain_wait(pid, options)
            if got[0]:
                counts.append(counts[-1] - 1)
            return got

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        return counts

    @staticmethod
    def forks(live):
        return sum(b > a for a, b in zip(live, live[1:]))

    def test_write_is_byte_identical(self, two_cpus, small_batches, written,
                                     tmp_path, live):
        snaps, serial_dir = written
        store.write_store(tmp_path / "from_list", snaps)
        store.write_store(tmp_path / "from_generator", (s for s in snaps))
        self.assert_no_children()
        assert self.forks(live) == 2            # a child for each write
        a = self.contents(serial_dir)
        assert len(a) == self.N_SNAPS + 4       # 3 meshes and a manifest
        assert a == self.contents(tmp_path / "from_list") \
            == self.contents(tmp_path / "from_generator")

    def test_first_child_forks_before_the_generator_ends(self, two_cpus,
                                                         small_batches, rng,
                                                         tmp_path, monkeypatch):
        snaps, yielded, at_fork = self.snapshots(rng), [], []
        plain = os.fork

        def fork():
            at_fork.append(len(yielded))
            return plain()

        def run():
            for snap in snaps:
                yielded.append(snap)
                yield snap

        monkeypatch.setattr(os, "fork", fork)
        store.write_store(tmp_path / "st", run())
        self.assert_no_children()
        assert at_fork == [self.BATCH] and at_fork[0] < self.N_SNAPS

    def test_never_more_live_children_than_cpus(self, two_cpus, small_batches,
                                                rng, tmp_path, live):
        snaps = self.snapshots(rng, 5 * self.BATCH + 3)
        store.write_store(tmp_path / "st", iter(snaps))
        self.assert_no_children()
        assert len(store.read_store(tmp_path / "st").entries) == len(snaps)
        assert self.forks(live) == 5
        assert max(live) == 2 and live[-1] == 0

    def test_a_predicted_store_forks_one_child(self, two_cpus, tmp_path, live):
        # the size of `dmd predict --until 44` on the preset: 165 files of one
        # field on 501 nodes. Batches are counted in values, so the first 144
        # files fill one batch for a child and this process writes the rest.
        msh = M.build_interval_mesh(0, 1, 500)
        values = np.linspace(0, 1, msh.n_nodes)
        store.write_store(tmp_path / "st", [(Fraction(k, 4), msh, {"s": values})
                                            for k in range(165)])
        self.assert_no_children()
        assert self.forks(live) == 1

    def test_each_dropped_mesh_gets_its_own_file(self, two_cpus, small_batches,
                                                 rng, tmp_path):
        # nothing but write_store holds a mesh after its snapshot, so the id
        # of a freed mesh may come back for the next one
        sizes = rng.permutation(np.arange(2, 2 + self.N_SNAPS)).tolist()

        def run():
            for k, n in enumerate(sizes):
                msh = M.build_interval_mesh(0, 1, n)
                yield Fraction(k, 4), msh, {"u": np.linspace(0, 1, n + 1)}

        back = store.read_store(store.write_store(tmp_path / "st", run()))
        assert len({e.mesh_file for e in back.entries}) == self.N_SNAPS
        for e, n in zip(back.entries, sizes):
            assert e.mesh.nodes[:, 0].tolist() == \
                M.build_interval_mesh(0, 1, n).nodes[:, 0].tolist()
            assert e.fields["u"].tolist() == np.linspace(0, 1, n + 1).tolist()

    def test_generator_error_kills_the_children(self, two_cpus, small_batches,
                                                rng, tmp_path, monkeypatch):
        snaps = self.snapshots(rng)
        parent, plain = os.getpid(), fem.save_fields

        def slow_in_child(mesh, fields, path):
            if os.getpid() != parent:
                time.sleep(10)
            return plain(mesh, fields, path)

        def run():
            yield from snaps[:30]
            raise StepError("Picard iteration stalled at t=7.5")

        monkeypatch.setattr(fem, "save_fields", slow_in_child)
        t0 = time.monotonic()
        with pytest.raises(StepError, match="stalled at t=7.5"):
            store.write_store(tmp_path / "st", run())
        assert time.monotonic() - t0 < 5        # killed, not waited for
        self.assert_no_children()
        assert not (tmp_path / "st" / "manifest.txt").exists()

    def test_read_is_bit_identical(self, two_cpus, written):
        snaps, st = written
        back = store.read_store(st)
        self.assert_no_children()
        assert len(back.entries) == self.N_SNAPS
        for k, (e, (t, msh, fields)) in enumerate(zip(back.entries, snaps)):
            assert (e.index, e.time_str) == (k, store.fraction_to_decimal(t))
            assert list(e.fields) == ["u", "v"]
            for name, values in fields.items():
                assert e.fields[name].tobytes() == values.tobytes()
        # a mesh is one object for all its snapshots
        assert len({id(e.mesh) for e in back.entries}) == 3

    def test_write_fault_matches_the_plain_loop(self, small_batches, rng,
                                                tmp_path, monkeypatch):
        # snapshot 5 goes to a child, snapshot 33 to the last, in-process
        # batch: the first in file order is the fault raised
        snaps = self.snapshots(rng)
        snaps[5][2]["bad five"] = snaps[5][2]["u"]
        snaps[33][2]["bad name"] = snaps[33][2]["u"]
        messages = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            out = tmp_path / f"st_{len(cpus)}"
            with pytest.raises(InvalidArgumentError) as err:
                store.write_store(out, snaps)
            messages.append(str(err.value))
            assert not (out / "manifest.txt").exists()
        self.assert_no_children()
        assert messages[0] == messages[1]
        assert "bad five" in messages[0]

    @pytest.mark.parametrize("how", ["exit", "signal"])
    def test_child_that_sends_nothing_gives_store_error(self, two_cpus,
                                                        small_batches,
                                                        written, tmp_path,
                                                        monkeypatch, how):
        snaps, _ = written
        parent, plain = os.getpid(), fem.save_fields

        def dies_in_child(mesh, fields, path):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return plain(mesh, fields, path)

        monkeypatch.setattr(fem, "save_fields", dies_in_child)
        st = tmp_path / "fanned"
        with pytest.raises(StoreError) as err:
            store.write_store(st, snaps)
        self.assert_no_children()
        assert str(st) in str(err.value)
        assert f"exit status {0 if how == 'exit' else -signal.SIGKILL}" \
               in str(err.value)

    def test_interrupt_reaps_every_child(self, two_cpus, small_batches,
                                         written, tmp_path, monkeypatch):
        snaps, _ = written
        parent, plain = os.getpid(), fem.save_fields

        def interrupted_in_parent(mesh, fields, path):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(0.2)
            return plain(mesh, fields, path)

        monkeypatch.setattr(fem, "save_fields", interrupted_in_parent)
        with pytest.raises(KeyboardInterrupt):
            store.write_store(tmp_path / "fanned", snaps)
        self.assert_no_children()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda p: ())(0)) < 2,
                        reason="with one CPU both runs take the plain loop, "
                               "so the comparison would be vacuous")
    def test_simulate_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        # 33 snapshots on the preset's 501-node reference mesh: each store
        # holds more than _BATCH_VALUES values, so each forks a child
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nt_end = 8\nn_elems = 125\n"
                       "initial_uniform_levels = 2\nmax_level = 2\n")
        outs = []
        for cpus in ({0}, set(sorted(os.sched_getaffinity(0))[:2])):
            out = tmp_path / f"cpus_{len(cpus)}"
            proc = fresh_python("-m", "amrdmd.pipeline_cli", "simulate", cfg,
                                out, "--quiet",
                                preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            assert proc.returncode == 0, proc.stderr
            outs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*"))
                         if p.is_file() and p.name != "run_manifest.txt"})
        assert len([p for p in outs[0] if p.parent.name == "projected"]) == 35
        for sub in ("adaptive", "projected"):
            heads = [data.split(b"\n", 1)[0].split() for p, data in outs[0].items()
                     if p.parent.name == sub and p.name.endswith(".field.txt")]
            assert sum(int(n) * int(k) for n, k in heads) > store._BATCH_VALUES, sub
        assert outs[0] == outs[1]
