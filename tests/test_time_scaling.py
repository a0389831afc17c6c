"""A metamorphic property of the command pipeline: project, dmd fit, dmd
predict --until and report errors on a 1-d store whose mesh coordinates and
times are scaled by 2^k. Scaling by a power of two is exact in binary, and
times are exact decimals from the manifest to the model file and back, so
the exit codes, every field value and every eta are those of the unscaled
run, and omega is exactly 2^-k times the unscaled omega."""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrdmd import dmd, mesh as M, pipeline_cli, store

N_SNAPS = 40
TRAIN = 29          # the last training snapshot
STEP = Fraction(3, 4)


def run(k, t0):
    """(exit codes, projected and predicted values, the error CSV rows,
    omega) of the pipeline at scale 2^k with first time t0 * 2^k."""
    scale = 2.0 ** k
    coarse = M.build_interval_mesh(0.0, 1.0, 8)
    meshes = [M.SimplicialMesh(dim=1, nodes=m.nodes * scale, elements=m.elements)
              for m in (coarse, M.uniform_refine(coarse, 1),
                        M.build_interval_mesh(0.0, 1.0, 5))]
    times = [(t0 + n * STEP) * Fraction(2) ** k for n in range(N_SNAPS)]
    snaps = []
    for n, t in enumerate(times):
        m = meshes[n % 3]
        x = m.nodes[:, 0] / scale       # the unscaled coordinates, exactly
        u = 0.9 ** n * np.sin(np.pi * x) + 0.5 * 0.8 ** n * np.cos(3 * x)
        snaps.append((t, m, {"u": u}))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        store.write_store(d / "adaptive", snaps)
        M.save_mesh(meshes[0], d / "target.mesh.txt")
        argvs = [
            ["project", d / "adaptive", d / "target.mesh.txt", d / "proj"],
            ["dmd", "fit", d / "proj", d / "u.dmd.txt", "--field", "u", "--rank", "2",
             "--t-end", store.fraction_to_decimal(times[TRAIN])],
            ["dmd", "predict", d / "u.dmd.txt", d / "pred", "--mesh", d / "target.mesh.txt",
             "--until", store.fraction_to_decimal(times[-1])],
            ["report", "errors", d / "proj", d / "pred", d / "e.csv", "--field", "u",
             "--train-end", store.fraction_to_decimal(times[TRAIN])]]
        codes = []
        for argv in argvs:
            codes.append(pipeline_cli.main([str(a) for a in argv] + ["--quiet"]))
            if codes[-1]:
                return codes, None
        values = [[e.fields["u"].tobytes() for e in store.read_store(d / s).entries]
                  for s in ("proj", "pred")]
        rows = [line.split(",") for line in (d / "e.csv").read_text().splitlines()]
        omega = dmd.load_model(d / "u.dmd.txt").omega
    assert [r[0] for r in rows[1:-1]] == [store.fraction_to_decimal(t) for t in times]
    return codes, (values, [r[1:] for r in rows], omega)


UNSCALED = {}


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-60, 60), t0=st.sampled_from([0, 7]))
@example(k=-62, t0=0)       # a model on this scale once paired 1 of 40 times
@example(k=-30, t0=7)
@example(k=60, t0=0)
def test_scaling_coordinates_and_times_by_a_power_of_two(k, t0):
    if t0 not in UNSCALED:
        UNSCALED[t0] = run(0, t0)
    codes, out = run(k, t0)
    want_codes, want = UNSCALED[t0]
    assert codes == want_codes == [0, 0, 0, 0]
    values, rows, omega = out
    assert values == want[0]
    assert rows == want[1]
    assert omega.tobytes() == (want[2] * 2.0 ** -k).tobytes()
