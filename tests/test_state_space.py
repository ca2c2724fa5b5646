import numpy as np
import pytest

from dualgen import state_space
from dualgen.errors import (
    DimensionMismatch,
    EmptyGrid,
    NonCommensurate,
    Overflow,
    SingularBasis,
)
from dualgen.state_space import (
    Cone,
    build_grid,
    cone_contains_many,
    duality_indicator_matrix,
    lightcone_2d,
)


def test_grid_shape_and_points_row_major():
    g = build_grid([0.0, 0.0], [2.0, 1.0], [1.0, 1.0])
    assert g.shape == (3, 2)
    pts = g.points()
    # axis 0 slowest: y cycles first
    assert np.array_equal(pts[:4], [[0, 0], [0, 1], [1, 0], [1, 1]])


# the benchmark's three grids at full scale: 401 points on [-10, 10], and
# side x side points of spacing 0.2 centred at 0 (bench/workloads.py)
_BENCH_GRIDS = {
    "chain1d": ([-10.0], [10.0], [0.05], (401,)),
    **{name: ([-0.2 * (side - 1) / 2.0] * 2, [0.2 * (side - 1) / 2.0] * 2,
              [0.2, 0.2], (side, side))
       for name, side in (("diff2d_small", 32), ("diff2d_large", 45))},
}


@pytest.mark.parametrize("name", sorted(_BENCH_GRIDS))
def test_grid_shape_is_kept_and_unchanged_on_the_bench_grids(name):
    lower, upper, spacing, shape = _BENCH_GRIDS[name]
    g = build_grid(lower, upper, spacing, "reflect")
    assert g.shape == shape and g.n_points == int(np.prod(shape))
    # computed once: every read returns the same tuple
    assert g.shape is g.shape
    pts = g.points()
    assert pts.shape == (g.n_points, len(shape))
    assert np.array_equal(pts[0], lower)
    assert np.allclose(pts[-1], upper, rtol=0.0, atol=1e-12)
    # row-major: the last axis moves fastest, by one spacing
    steps = np.diff(pts.reshape(shape + (len(shape),)), axis=-2)
    assert np.allclose(steps[..., -1], spacing[-1], rtol=0.0, atol=1e-12)
    assert g.axis(0).shape == shape[:1]


def test_build_grid_errors():
    with pytest.raises(NonCommensurate):
        build_grid([0.0], [1.0], [0.3])
    with pytest.raises(EmptyGrid):
        build_grid([1.0], [0.0], [0.5])
    with pytest.raises(DimensionMismatch):
        build_grid([0.0, 0.0], [1.0], [0.5])
    with pytest.raises(ValueError):
        build_grid([0.0], [1.0], [0.5], boundary_policy="bounce")


def test_pareto_cone_membership():
    got = cone_contains_many(Cone.pareto(2),
                             [[1.0, 2.0], [0.0, 0.0], [-1.0, 2.0]])
    assert got.tolist() == [True, True, False]


def test_lightcone_membership():
    got = cone_contains_many(lightcone_2d(), [
        [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    assert got.tolist() == [True, True, True, False, False]


def test_singular_basis_rejected():
    with pytest.raises(SingularBasis):
        Cone.from_vectors([1.0, 1.0], [2.0, 2.0])


def test_duality_indicator_1d_is_lower_triangular():
    g = build_grid([0.0], [3.0], [1.0])
    f = duality_indicator_matrix(g, Cone.pareto(1))
    assert np.array_equal(f, np.tril(np.ones((4, 4))))


@pytest.mark.parametrize("cone", [Cone.pareto(2), lightcone_2d()])
def test_duality_indicator_row_blocks_match_one_block(monkeypatch, cone):
    g = build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.5])
    pts = g.points()
    whole = cone_contains_many(
        cone, (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2))
    monkeypatch.setattr(state_space, "_INDICATOR_BLOCK", 7 * g.n_points * 2)
    f = duality_indicator_matrix(g, cone)
    assert np.array_equal(f, whole.reshape(g.n_points, -1).astype(float))


def test_duality_indicator_state_cap():
    g = build_grid([0.0, 0.0], [64.0, 64.0], [1.0, 1.0])
    with pytest.raises(Overflow):
        duality_indicator_matrix(g, Cone.pareto(2))
