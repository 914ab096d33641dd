"""Direct tests of the numpy reference models themselves.

The reference models are load-bearing (every workload's golden check
depends on them), so they get their own sanity tests against closed-form
or brute-force alternatives.
"""

import numpy as np

from repro.kernels.bfs import random_csr_graph
from repro.kernels.cfd import _flux_reference, _make_mesh
from repro.kernels.hotspot import AMB_TEMP, hotspot_reference
from repro.kernels.lud import diagonal_step_reference, perimeter_reference
from repro.kernels.nw import PENALTY, nw_reference_full
from repro.kernels.pathfinder import pathfinder_row_reference
from repro.kernels.srad import srad_reference


def test_bfs_graph_is_wellformed_csr():
    row_ptr, col = random_csr_graph(50, avg_degree=3, seed=1)
    assert len(row_ptr) == 51
    assert row_ptr[0] == 0
    assert np.all(np.diff(row_ptr) >= 0)
    assert len(col) == row_ptr[-1]
    assert col.min() >= 0 and col.max() < 50


def test_hotspot_reference_equilibrium():
    # A uniform field at ambient with no power must stay put.
    temp = np.full((8, 8), AMB_TEMP)
    power = np.zeros((8, 8))
    out = hotspot_reference(temp, power)
    np.testing.assert_allclose(out, temp)
    # Power injection heats the field.
    out2 = hotspot_reference(temp, np.ones((8, 8)))
    assert (out2 > temp).all()


def test_lud_diagonal_step_matches_full_lu():
    rng = np.random.default_rng(4)
    b = 6
    tile = rng.uniform(0.5, 1.5, (b, b)) + np.eye(b) * b
    # Apply all steps; the result must satisfy A = L @ U.
    work = tile.copy()
    for k in range(b):
        work = diagonal_step_reference(work, k)
    l = np.tril(work, -1) + np.eye(b)
    u = np.triu(work)
    np.testing.assert_allclose(l @ u, tile, rtol=1e-9)


def test_lud_perimeter_solves_triangular_systems():
    rng = np.random.default_rng(5)
    b = 5
    diag = rng.uniform(0.5, 1.5, (b, b)) + np.eye(b) * b
    # Factorise so diag holds L (unit lower) and U.
    work = diag.copy()
    for k in range(b):
        work = diagonal_step_reference(work, k)
    l = np.tril(work, -1) + np.eye(b)
    u = np.triu(work)
    rs = rng.normal(size=(b, b))
    cs = rng.normal(size=(b, b))
    e_rs, e_cs = perimeter_reference(work, rs, cs)
    np.testing.assert_allclose(l @ e_rs, rs, rtol=1e-9)   # L y = a
    np.testing.assert_allclose(e_cs @ u, cs, rtol=1e-9)   # x U = a


def test_nw_reference_greedy_bounds():
    rng = np.random.default_rng(6)
    ref = rng.integers(-5, 6, (9, 9)).astype(float)
    score = nw_reference_full(ref, PENALTY)
    # Boundary rows are the gap penalties.
    np.testing.assert_array_equal(score[0], -PENALTY * np.arange(9))
    # DP is monotone under better match scores.
    better = nw_reference_full(ref + 1.0, PENALTY)
    assert (better[1:, 1:] >= score[1:, 1:]).all()


def test_pathfinder_row_reference_brute_force():
    rng = np.random.default_rng(7)
    wall = rng.integers(0, 9, 16).astype(float)
    prev = rng.integers(0, 30, 16).astype(float)
    got = pathfinder_row_reference(wall, prev)
    for c in range(16):
        lo = max(0, c - 1)
        hi = min(15, c + 1)
        assert got[c] == wall[c] + prev[lo:hi + 1].min()


def test_srad_reference_uniform_image():
    # A perfectly uniform image has no gradients: q2 = 0, so the
    # coefficient saturates at its q0-driven constant.
    image = np.full((6, 6), 2.0)
    c = srad_reference(image)
    expected = 1.0 / (1.0 + (0.0 - 0.05) / (0.05 * 1.05))
    np.testing.assert_allclose(c, np.clip(expected, 0, 1))


def test_cfd_flux_conservation_shape():
    variables, neighbors, normals, _ = _make_mesh(32, seed=8)
    flux = _flux_reference(variables, neighbors, normals)
    assert flux.shape == (5, 32)
    assert np.isfinite(flux).all()
    # Wall-only elements produce zero mass flux.
    walls_only = np.full_like(neighbors, -2)
    flux2 = _flux_reference(variables, walls_only, normals)
    np.testing.assert_array_equal(flux2[0], np.zeros(32))
    np.testing.assert_array_equal(flux2[4], np.zeros(32))
