import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import amrdmd
from amrdmd import dmd, fem, mesh as M, pipeline_cli, store
from amrdmd.errors import ConfigError, StoreError


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
        params, policy, n_elems = store.parse_run_config(cfg)
        assert params.t_end == 2.0
        assert policy.refine_fraction == 0.2
        assert n_elems == 10

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            store.parse_run_config(cfg)
        assert err.value.line_no == 2

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = fast\n")
        with pytest.raises(ConfigError) as err:
            store.parse_run_config(cfg)
        assert err.value.line_no == 1

    def test_empty_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            store.parse_run_config(cfg)


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

    def test_collision_without_force(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng)
        store.write_store(tmp_path / "st", snaps)
        with pytest.raises(FileExistsError):
            store.write_store(tmp_path / "st", snaps)
        store.write_store(tmp_path / "st", snaps, force=True)

    def test_failed_marker_blocks_read(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng)
        store.write_store(tmp_path / "st", snaps)
        (tmp_path / "st" / ".failed").touch()
        with pytest.raises(StoreError):
            store.read_store(tmp_path / "st")

    def test_snapshot_matrix_window(self, tmp_path, rng):
        mesh, snaps = self.make_snapshots(rng, n_snaps=5)
        store.write_store(tmp_path / "st", snaps)
        back = store.read_store(tmp_path / "st")
        Y = store.store_to_snapshot_matrix(back, "u", t_start=0.25, t_end=0.75)
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
                                         "t_end = 1.1"])
    def test_invalid_parameter_exit_2_before_output(self, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dt = 0.25\nn_elems = 10\n{setting}\n")
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(amrdmd.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "amrdmd.pipeline_cli", "simulate",
             str(cfg), str(out), "--quiet"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

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
                donor_mean = fem.integrate(fem.FeField(a.mesh, a.fields[name]))
                proj_mean = fem.integrate(fem.FeField(p.mesh, p.fields[name]))
                assert proj_mean == pytest.approx(
                    donor_mean, abs=1e-10 + 1e-8 * abs(donor_mean))

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
        text = (out / "report.txt").read_text()
        assert "donor_elements = 1672" in text
        assert "donor_nodes = 857" in text
        assert (out / "donor.mesh.txt").exists()
        assert (out / "unstructured.field.txt").exists()

    def test_usage_error_exit_2(self):
        assert run_cli("dmd", "fit") == 2

    def test_malformed_mesh_file_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        bad = tmp_path / "bad.mesh.txt"
        bad.write_text("not a mesh\n")
        code = run_cli("project", out / "adaptive", bad, tmp_path / "p", "--quiet")
        assert code == 2
