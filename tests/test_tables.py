"""The one table reader behind the mesh, field, model and manifest loaders:
the refusals it adds, and a differential test against the four readers it
replaced (the old_* oracles in conftest) on mutated valid files."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import dmd, fem, mesh as M, pipeline_cli, store
from amrdmd.dmd import DmdModel
from amrdmd.errors import InvalidArgumentError, StoreError

from conftest import (old_load_fields, old_load_mesh, old_load_model,
                      old_read_store)


def run_cli(*argv):
    return pipeline_cli.main([str(a) for a in argv])


def small_store(path, times=range(4)):
    m = M.build_interval_mesh(0, 1, 4)
    rng = np.random.default_rng(3)
    return store.write_store(path, [(Fraction(t), m, {"u": rng.uniform(1, 2, m.n_nodes),
                                                      "v": rng.uniform(size=m.n_nodes)})
                                    for t in times])


@pytest.fixture
def fitted(tmp_path):
    """A store on a 5-node mesh and a rank-2 model of its field u."""
    st_dir = small_store(tmp_path / "st", range(6))
    model = tmp_path / "u.dmd.txt"
    assert run_cli("dmd", "fit", st_dir, model, "--field", "u", "--rank", "2",
                   "--quiet") == 0
    return st_dir, model


def edit_line(path, k, text):
    lines = path.read_text().split("\n")
    lines[k] = text
    path.write_text("\n".join(lines))


class TestRefusals:
    @pytest.mark.parametrize("edit", [
        lambda lines: [lines[0], "# nodes", *lines[1:]],
        lambda lines: [*lines[:3], lines[3] + " # the third node", *lines[4:]]],
        ids=["comment_line", "trailing_comment"])
    def test_comment_in_mesh_file_exit_2(self, fitted, tmp_path, capsys, edit):
        st_dir, model = fitted
        bad = tmp_path / "bad.mesh.txt"
        lines = (st_dir / "mesh_0000.mesh.txt").read_text().splitlines()
        bad.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        assert run_cli("dmd", "predict", model, tmp_path / "pred", "--mesh", bad,
                       "--until", "3", "--quiet") == 2
        err = capsys.readouterr().err
        assert f"malformed mesh file {bad}" in err and "line " in err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("line,row", [(1, "nan 0"), (7, "1 inf")],
                             ids=["nan_lambda", "inf_mode"])
    def test_non_finite_model_value_exit_2(self, fitted, tmp_path, capsys, line, row):
        st_dir, model = fitted
        edit_line(model, line, row)      # line 2: lambda 0; line 8: a mode entry
        capsys.readouterr()
        assert run_cli("dmd", "predict", model, tmp_path / "pred", "--mesh",
                       st_dir / "mesh_0000.mesh.txt", "--until", "44", "--quiet") == 2
        err = capsys.readouterr().err
        assert f"malformed model file {model}: line {line + 1}" in err
        assert not (tmp_path / "pred").exists()

    def test_omega_must_be_nan_exactly_at_a_zero_lambda(self, tmp_path):
        rng = np.random.default_rng(1)
        model = DmdModel(rank=2, lam=np.array([0.5 + 0.5j, 0]),
                         omega=np.array([np.log(0.5 + 0.5j), np.nan]),
                         modes=rng.normal(size=(3, 2)) + 0j,
                         amplitudes=np.array([1.0 + 0j, 2.0]), t0=0.0, dt_o=1.0)
        path = tmp_path / "z.dmd.txt"
        dmd.save_model(model, path)
        back = dmd.load_model(path)
        assert np.array_equal(back.omega, model.omega, equal_nan=True)
        for line, row in [(4, "0 0"), (3, "nan 0")]:    # omega rows of lambda 0, then 1
            dmd.save_model(model, path)
            edit_line(path, line, row)
            with pytest.raises(InvalidArgumentError, match=f"line {line + 1}: omega"):
                dmd.load_model(path)

    @pytest.mark.parametrize("n,r", [(-1, 1), (0, 2), (2, 0)])
    def test_model_header_counts_must_be_positive(self, tmp_path, n, r):
        # n = -1, r = 1 and its two rows read as a rank-1 model with no amplitude
        path = tmp_path / "bad.dmd.txt"
        path.write_text(f"{n} {r} 0 1 u\n" + "0.5 0\n" * max((3 + n) * r, 0))
        with pytest.raises(InvalidArgumentError, match=f"bad.dmd.txt: n = {n}"):
            dmd.load_model(path)

    @pytest.mark.parametrize("edit,line", [
        (lambda rows: [rows[0], rows[1], "3" + rows[2][1:], "4" + rows[3][1:]], 3),
        (lambda rows: [rows[0], rows[2], rows[1], rows[3]], 2),
        (lambda rows: [rows[0], rows[1], rows[2].replace(" 2 ", " 1 "), rows[3]], 3),
        (lambda rows: [rows[0], rows[1].replace(" 1 ", " 9 "), *rows[2:]], 3),
    ], ids=["index_gap", "swapped_lines", "equal_times", "descending_times"])
    def test_manifest_out_of_order_exit_3(self, tmp_path, capsys, edit, line):
        st_dir = small_store(tmp_path / "st")
        manifest = st_dir / "manifest.txt"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        assert run_cli("report", "qoi", st_dir, tmp_path / "q.csv", "--quiet") == 3
        assert f"{manifest}: line {line}: " in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("times", [(0, 2, 1), (0, 1, 1)], ids=["descending", "equal"])
    def test_write_store_refuses_times_that_do_not_increase(self, tmp_path, times):
        with pytest.raises(InvalidArgumentError, match="does not follow"):
            small_store(tmp_path / "st", times)
        assert not (tmp_path / "st" / "manifest.txt").exists()

    @pytest.mark.parametrize("number", ["0_5", "\u0665"], ids=["underscore", "arabic_indic"])
    @pytest.mark.parametrize("kind", ["mesh", "fields", "model"])
    def test_header_numbers_are_plain_ascii(self, fitted, tmp_path, kind, number):
        st_dir, model = fitted
        path, read = {"mesh": (st_dir / "mesh_0000.mesh.txt", M.load_mesh),
                      "fields": (st_dir / "snap_0000.field.txt",
                                 lambda p: fem.load_fields(p, M.load_mesh(
                                     st_dir / "mesh_0000.mesh.txt"))),
                      "model": (model, dmd.load_model)}[kind]
        head = path.read_text().split("\n")[0].split()
        column = head.index("5")                        # n_nodes, or n
        edit_line(path, 0, " ".join(head[:column] + [number] + head[column + 1:]))
        with pytest.raises(InvalidArgumentError, match=f"{path.name}: line 1: "):
            read(path)

    @pytest.mark.parametrize("index,time", [("0_1", "1"), ("1", "0_1"), ("1", "2/2")],
                             ids=["index_underscore", "time_underscore", "ratio_time"])
    def test_manifest_numbers_are_plain_decimals(self, tmp_path, index, time):
        st_dir = small_store(tmp_path / "st")
        edit_line(st_dir / "manifest.txt", 1,
                  f"{index} {time} mesh_0000.mesh.txt snap_0001.field.txt")
        with pytest.raises(StoreError, match="manifest.txt: line 2: "):
            store.read_store(st_dir)

    def test_bytes_that_are_not_text_exit_3(self, tmp_path, capsys):
        st_dir = small_store(tmp_path / "st")
        manifest = st_dir / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes().replace(b"0 0", b"0 \xff", 1))
        assert run_cli("report", "qoi", st_dir, tmp_path / "q.csv", "--quiet") == 3
        assert f"malformed manifest {manifest}" in capsys.readouterr().err

    def test_manifest_fault_comes_after_the_files_before_it(self, tmp_path):
        st_dir = small_store(tmp_path / "st")
        edit_line(st_dir / "manifest.txt", 3, "3 2 mesh_0000.mesh.txt snap_0003.field.txt")
        (st_dir / "snap_0001.field.txt").write_text("garbage\n")
        with pytest.raises(StoreError, match="snap_0001.field.txt"):
            store.read_store(st_dir)
        with pytest.raises(StoreError, match="line 4: time 2 does not follow 2"):
            store.read_store(st_dir, t_start=2)


# ---------------------------------------------------------------------------
# differential test: mutated valid files, read by the old readers and by
# the library's

TOKENS = ["nan", "inf", "1e400", "-1", "#", "1_0"]
# line ends that str.splitlines() knows and a newline-split line does not
OTHER_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def plain(token):
    return token.isascii() and "_" not in token


def valid_files(root):
    """{kind: (path, reader of the library, old reader, same)}
    over valid files in root; same(a, b) compares two results."""
    rng = np.random.default_rng(7)
    one = M.uniform_refine(M.build_interval_mesh(0, 1, 2), 1)
    two = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 1)
    M.save_mesh(one, root / "one.mesh.txt")
    M.save_mesh(two, root / "two.mesh.txt")
    fem.save_fields(one, {c: rng.normal(size=one.n_nodes) for c in "sei"},
                    root / "f.field.txt")
    lam = np.array([0.9 * np.exp(0.3j), 0, -0.5])     # a zero and an aliased mode
    omega = np.array([np.log(lam[0]), 0, np.log(lam[2])]) / 0.25
    omega[1] = np.nan                                   # nan + 0j, as fit writes it
    dmd.save_model(DmdModel(rank=3, lam=lam, omega=omega,
                            modes=rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
                            amplitudes=rng.normal(size=3) + 0j, t0=0.5, dt_o=0.25,
                            field_name="s"), root / "m.dmd.txt")
    small_store(root / "st", [Fraction(k, 4) for k in range(4)])

    def same_mesh(a, b):
        return (a.dim == b.dim and a.nodes.tobytes() == b.nodes.tobytes()
                and a.elements.tobytes() == b.elements.tobytes())

    def same_fields(a, b):
        return list(a) == list(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)

    def same_model(a, b):
        return ((a.rank, a.n, a.t0, a.dt_o, a.field_name, a.aliased_modes)
                == (b.rank, b.n, b.t0, b.dt_o, b.field_name, b.aliased_modes)
                and all(getattr(a, k).tobytes() == getattr(b, k).tobytes()
                        for k in ("lam", "omega", "amplitudes", "modes")))

    def same_store(a, b):
        key = [(e.index, e.time_str, e.time, e.mesh_file, e.field_file) for e in a.entries]
        return (key == [(e.index, e.time_str, e.time, e.mesh_file, e.field_file)
                        for e in b.entries]
                and all(same_mesh(x.mesh, y.mesh) and same_fields(x.fields, y.fields)
                        for x, y in zip(a.entries, b.entries)))

    return {
        "mesh_1d": (root / "one.mesh.txt", M.load_mesh, old_load_mesh, same_mesh),
        "mesh_2d": (root / "two.mesh.txt", M.load_mesh, old_load_mesh, same_mesh),
        "fields": (root / "f.field.txt", lambda p: fem.load_fields(p, one),
                   lambda p: old_load_fields(p, one), same_fields),
        "fields_e": (root / "f.field.txt", lambda p: fem.load_fields(p, one, ["e"]),
                     lambda p: old_load_fields(p, one, ["e"]), same_fields),
        "model": (root / "m.dmd.txt", dmd.load_model, old_load_model, same_model),
        "manifest": (root / "st" / "manifest.txt", lambda p: store.read_store(p.parent),
                     lambda p: old_read_store(p.parent), same_store),
    }


@st.composite
def mutations(draw, data):
    """data (bytes) after one mutation: truncated, a row appended, a bit
    flipped, a token swapped, or a line duplicated or moved."""
    how = draw(st.sampled_from(["truncate", "append", "flip", "token", "duplicate",
                                "reorder"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1:]
    text = data.decode()
    if how == "token":
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        a, b = draw(st.sampled_from(spans))
        return (text[:a] + draw(st.sampled_from(TOKENS)) + text[b:]).encode()
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "append":
        return (text + lines[i]).encode()
    if how == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    return "".join(lines).encode()


def model_values_break_the_rule(model):
    zero = np.abs(model.lam) < dmd.ZERO_EIGENVALUE_TOL
    return not (np.isfinite(model.lam).all() and np.isfinite(model.amplitudes).all()
                and np.isfinite(model.modes).all()
                and np.isfinite(model.omega[~zero]).all()
                and np.isnan(model.omega[zero].real).all()
                and (model.omega[zero].imag == 0).all())


def refused_class(kind, data, old):
    """The refusal class that a file the old reader took is in, or
    None. The classes are those CHANGES.md lists."""
    text = data.decode()
    lines = text.split("\n")
    head = lines[0].split()
    numbers = {"mesh_1d": head, "mesh_2d": head, "fields": head, "fields_e": head,
               "model": head[:4]}.get(kind, [])
    if kind.startswith(("mesh", "model")) and "#" in "\n".join(lines[1:]):
        return "comment"
    if not all(map(plain, numbers)):
        return "header number not plain"
    if kind == "model":
        if int(head[0]) <= 0 or int(head[1]) <= 0:
            return "model counts"
        if model_values_break_the_rule(old):
            return "model values"
    if kind == "manifest":
        if any(c in text for c in OTHER_LINE_ENDS):
            return "line end other than a newline"
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not all(plain(row[0]) and plain(row[1]) for row in rows):
            return "manifest number not plain"
        if any("/" in row[1] for row in rows):
            return "ratio time"
        times = [Fraction(row[1]) for row in rows]
        if ([int(row[0]) for row in rows] != list(range(len(rows)))
                or any(b <= a for a, b in zip(times, times[1:]))):
            return "manifest order"
    return None


def outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:        # any exception of an old reader refuses
        return None, exc


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    files = valid_files(root)
    return {kind: (spec, spec[0].read_bytes()) for kind, spec in files.items()}


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_the_reader_accepts_a_subset_of_what_the_old_readers_did(originals, data):
    kind = data.draw(st.sampled_from(sorted(originals)))
    (path, read, old_read, same), original = originals[kind]
    mutated = data.draw(mutations(original))
    try:
        path.write_bytes(mutated)
        new, new_exc = outcome(read, path)
        old, old_exc = outcome(old_read, path)
    finally:
        path.write_bytes(original)
    if new_exc is None:
        assert old_exc is None, (kind, mutated, old_exc)
        assert same(new, old), (kind, mutated)
        return
    if kind == "manifest" and isinstance(new_exc, FileNotFoundError):
        assert isinstance(old_exc, FileNotFoundError), (mutated, old_exc)
    else:
        assert isinstance(new_exc, StoreError if kind == "manifest"
                          else InvalidArgumentError), (kind, mutated, new_exc)
    if old_exc is None:
        assert refused_class(kind, mutated, old), (kind, mutated, new_exc)


def test_the_valid_files_read_the_same(originals):
    for kind, ((path, read, old_read, same), _) in originals.items():
        assert same(read(path), old_read(path)), kind
