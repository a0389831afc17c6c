import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import amrdmd
from amrdmd import dmd, fem, mesh as M, pipeline_cli, seird_sim, store
from amrdmd.errors import (ConfigError, InvalidArgumentError, StepError,
                           StoreError)


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


def fresh_python(*args, cwd=None, preexec_fn=None, **env_vars):
    """Run a new interpreter that imports the package from this tree, with
    env_vars added to the environment."""
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        [str(Path(amrdmd.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=preexec_fn)


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

    def test_project_onto_gapped_target(self, small_run, tmp_path):
        # a 1-d target of two disjoint pieces has a block-diagonal mass matrix
        root, cfg, out = small_run
        target = M.SimplicialMesh(dim=1, nodes=[0.0, 0.25, 0.5, 0.75, 1.0],
                                  elements=[[3, 4], [0, 1], [1, 2]],
                                  level=[0, 0, 0])
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
                                      ("--until", "nan")])
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

    def test_extra_mesh_rows_exit_2(self, tmp_path, rng, capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        with open(st / "mesh_0000.mesh.txt", "a") as fh:
            fh.write("0 1\n")
        csv = tmp_path / "q.csv"
        assert run_cli("report", "qoi", st, csv, "--quiet") == 2
        assert "mesh_0000.mesh.txt" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("snap,row", [("snap_0001.field.txt", "1 2 3 4 5\n"),
                                          ("snap_0002.field.txt", "garbage row\n")])
    def test_extra_field_rows_exit_2(self, tmp_path, rng, capsys, snap, row):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {c: rng.uniform(size=m.n_nodes)
                                   for c in ("s", "e", "i", "r", "d")})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        with open(st / snap, "a") as fh:
            fh.write(row)
        model = tmp_path / "s.dmd.txt"
        assert run_cli("dmd", "fit", st, model, "--field", "s", "--rank", "1",
                       "--quiet") == 2
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

    def test_repeated_field_name_exit_2(self, small_run, tmp_path, capsys):
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
                       "--quiet") == 2
        assert "snap_0003.field.txt" in capsys.readouterr().err
        assert not model.exists()

    def test_non_finite_mesh_coordinate_exit_2(self, tmp_path, rng):
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
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "mesh_0000.mesh.txt" in proc.stderr

    def test_mesh_index_out_of_range_exit_2(self, tmp_path, rng, capsys):
        m = M.build_interval_mesh(0, 1, 4)
        snaps = [(Fraction(k), m, {"u": rng.normal(size=m.n_nodes)})
                 for k in range(3)]
        st = store.write_store(tmp_path / "st", snaps)
        mesh_file = st / "mesh_0000.mesh.txt"
        lines = mesh_file.read_text().splitlines()
        lines[-1] = f"3 {m.n_nodes}"
        mesh_file.write_text("\n".join(lines) + "\n")
        assert run_cli("dmd", "fit", st, tmp_path / "m.dmd.txt", "--field", "u",
                       "--rank", "1", "--quiet") == 2
        assert "mesh_0000.mesh.txt" in capsys.readouterr().err

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

    def test_report_missing_field_exit_3(self, small_run, tmp_path, capsys):
        root, cfg, out = small_run
        code = run_cli("report", "errors", out / "projected", out / "projected",
                       tmp_path / "x.csv", "--field", "zz", "--quiet")
        assert code == 3
        assert "snap_0000.field.txt" in capsys.readouterr().err

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

    def test_usage_error_exit_2(self):
        assert run_cli("dmd", "fit") == 2

    def test_malformed_mesh_file_exit_2(self, small_run, tmp_path):
        root, cfg, out = small_run
        bad = tmp_path / "bad.mesh.txt"
        bad.write_text("not a mesh\n")
        code = run_cli("project", out / "adaptive", bad, tmp_path / "p", "--quiet")
        assert code == 2


class TestStoreFanOut:
    """write_store and read_store spread their files over the CPUs of the
    process. Here the affinity mask is faked to three CPUs, so the fan-out
    runs (a parent part and two forked parts) on any machine, and compared
    with the plain loop, forced by raising the job threshold."""

    N_SNAPS = 40

    @pytest.fixture
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

    def snapshots(self, rng):
        meshes = [M.build_interval_mesh(0, 1, n) for n in (12, 17, 9)]
        return [(Fraction(k, 4), meshes[k % 3],
                 {"u": rng.normal(size=meshes[k % 3].n_nodes),
                  "v": rng.normal(size=meshes[k % 3].n_nodes) * 1e-300})
                for k in range(self.N_SNAPS)]

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
            m.setattr(store, "_PART_MIN_JOBS", 10 ** 9)
            store.write_store(tmp_path / "serial", snaps)
        return snaps, tmp_path / "serial"

    def test_write_is_byte_identical(self, three_cpus, written, tmp_path):
        snaps, serial_dir = written
        store.write_store(tmp_path / "fanned", snaps)
        self.assert_no_children()
        a, b = self.contents(serial_dir), self.contents(tmp_path / "fanned")
        assert len(a) == self.N_SNAPS + 4       # 3 meshes and a manifest
        assert a == b

    def test_read_is_bit_identical(self, three_cpus, written, monkeypatch):
        snaps, st = written
        with monkeypatch.context() as m:
            m.setattr(store, "_PART_MIN_JOBS", 10 ** 9)
            plain = store.read_store(st)
        fanned = store.read_store(st)
        self.assert_no_children()
        assert len(fanned.entries) == self.N_SNAPS
        for p, f, (_, msh, fields) in zip(plain.entries, fanned.entries, snaps):
            assert (p.index, p.time_str, p.mesh_file) == \
                   (f.index, f.time_str, f.mesh_file)
            assert list(p.fields) == list(f.fields) == ["u", "v"]
            for name, values in fields.items():
                assert f.fields[name].tobytes() == p.fields[name].tobytes() \
                       == values.tobytes()
        # a mesh is one object for all its snapshots, as in the plain loop
        assert len({id(e.mesh) for e in fanned.entries}) == 3

    @pytest.mark.parametrize("damage", ["trailing_row", "missing_file",
                                        "then_bad_manifest"])
    def test_first_fault_matches_the_plain_loop(self, three_cpus, written,
                                                tmp_path, capsys, monkeypatch,
                                                damage):
        # the parts are files 0-12, 13-25 and 26-39 in manifest order (0-11,
        # 12-24 and 25-37 when line 39 is bad); the first fault lies in the
        # first forked part, a later one in the second
        snaps, st = written
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
        results = []
        for threshold in (10 ** 9, store._PART_MIN_JOBS):
            monkeypatch.setattr(store, "_PART_MIN_JOBS", threshold)
            code = run_cli("report", "qoi", st, tmp_path / "q.csv", "--quiet")
            results.append((code, capsys.readouterr().err))
        self.assert_no_children()
        assert results[0] == results[1]
        assert results[0][0] == (3 if damage == "missing_file" else 2)
        assert "snap_0020.field.txt" in results[0][1]

    def test_write_fault_matches_the_plain_loop(self, three_cpus, rng,
                                                tmp_path, monkeypatch):
        snaps = self.snapshots(rng)
        snaps[33][2]["bad name"] = snaps[33][2]["u"]
        messages = []
        for threshold in (10 ** 9, store._PART_MIN_JOBS):
            monkeypatch.setattr(store, "_PART_MIN_JOBS", threshold)
            out = tmp_path / f"st_{threshold}"
            with pytest.raises(InvalidArgumentError) as err:
                store.write_store(out, snaps)
            messages.append(str(err.value))
            assert not (out / "manifest.txt").exists()
        self.assert_no_children()
        assert messages[0] == messages[1]
        assert "bad name" in messages[0]

    @pytest.mark.parametrize("how", ["exit", "signal"])
    def test_child_that_sends_nothing_gives_store_error(self, three_cpus,
                                                        written, monkeypatch,
                                                        how):
        snaps, st = written
        parent, plain = os.getpid(), fem.load_fields

        def dies_in_child(path, msh):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return plain(path, msh)

        monkeypatch.setattr(fem, "load_fields", dies_in_child)
        with pytest.raises(StoreError) as err:
            store.read_store(st)
        self.assert_no_children()
        assert str(st) in str(err.value)
        assert f"exit status {0 if how == 'exit' else -signal.SIGKILL}" \
               in str(err.value)

    def test_interrupt_reaps_every_child(self, three_cpus, written,
                                         monkeypatch):
        snaps, st = written
        parent, plain = os.getpid(), fem.load_fields

        def interrupted_in_parent(path, msh):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(0.2)
            return plain(path, msh)

        monkeypatch.setattr(fem, "load_fields", interrupted_in_parent)
        with pytest.raises(KeyboardInterrupt):
            store.read_store(st)
        self.assert_no_children()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda p: ())(0)) < 2,
                        reason="with one CPU both runs take the plain loop, "
                               "so the comparison would be vacuous")
    def test_simulate_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.25\nt_end = 8\nn_elems = 10\n"
                       "initial_uniform_levels = 1\nmax_level = 1\n")
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
        assert outs[0] == outs[1]
