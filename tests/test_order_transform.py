import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgen.matrix_lab import SurvivalTransform
from dualgen.order_transform import (
    TranslationKernel,
    riesz_normalizer,
    sphere_area,
)
from dualgen.state_space import Cone, build_grid, lightcone_2d


def test_sphere_area_known_values():
    assert sphere_area(2) == pytest.approx(2 * np.pi)
    assert sphere_area(3) == pytest.approx(4 * np.pi)


def test_riesz_normalizer_alpha2_d3():
    # H_3(2) = 4 pi^{3/2} Gamma(1) / Gamma(1/2) = 4 pi
    assert riesz_normalizer(3, 2.0) == pytest.approx(4 * np.pi)


def test_forward_inverse_pareto_round_trip_1d():
    g = build_grid([0.0], [9.0], [1.0])
    rng = np.random.default_rng(5)
    w = rng.normal(size=g.n_points)
    op = SurvivalTransform(g, Cone.pareto(1))
    back = op.apply_inverse(op.apply(w))
    assert np.abs(back - w).max() < 1e-12


def test_forward_inverse_pareto_round_trip_2d():
    g = build_grid([0.0, 0.0], [4.0, 3.0], [1.0, 1.0])
    rng = np.random.default_rng(6)
    w = rng.normal(size=g.n_points)
    op = SurvivalTransform(g, Cone.pareto(2))
    back = op.apply_inverse(op.apply(w))
    assert np.abs(back - w).max() < 1e-12


def test_inverse_F_cone_identity_basis_matches_pareto():
    # diag(2, 1) generates the Pareto cone but is not the identity basis,
    # so it takes the dense Moebius path: both paths must agree
    g = build_grid([0.0, 0.0], [3.0, 3.0], [1.0, 1.0])
    rng = np.random.default_rng(7)
    pareto = SurvivalTransform(g, Cone.pareto(2))
    dense = SurvivalTransform(g, Cone(basis=np.diag([2.0, 1.0])))
    f = pareto.apply(rng.normal(size=g.n_points))
    a = pareto.apply_inverse(f)
    b = dense.apply_inverse(f)
    assert np.abs(a - b).max() < 1e-12


def test_forward_F_pareto_fast_path_equals_matrix_path():
    g = build_grid([0.0, 0.0], [3.0, 2.0], [1.0, 1.0])
    rng = np.random.default_rng(8)
    w = rng.normal(size=g.n_points)
    from dualgen.state_space import duality_indicator_matrix
    fmat = duality_indicator_matrix(g, Cone.pareto(2))
    expect = fmat.T @ w
    got = SurvivalTransform(g, Cone.pareto(2)).apply(w)
    assert np.abs(got - expect).max() < 1e-12


def test_forward_F_lightcone_counts_cone_points():
    g = build_grid([-2.0, -2.0], [2.0, 2.0], [1.0, 1.0])
    # a point mass at the origin, the grid's centre point
    mass = np.zeros(g.n_points)
    mass[g.n_points // 2] = 1.0
    assert np.array_equal(g.points()[g.n_points // 2], [0.0, 0.0])
    vals = SurvivalTransform(g, lightcone_2d()).apply(mass)
    vals = vals.reshape(g.shape)
    pts = g.points().reshape(g.shape + (2,))
    # mass at origin is seen from y iff -y lies in the cone, i.e. y2 <= -|y1|
    for i in range(5):
        for j in range(5):
            x1, x2 = pts[i, j]
            assert vals[i, j] == (1.0 if x2 <= -abs(x1) else 0.0)


def test_translation_kernel_validation():
    with pytest.raises(ValueError):
        TranslationKernel(kind="riesz", d=2, alpha=2.0)
    with pytest.raises(ValueError):
        TranslationKernel(kind="newtonian", d=2)
    with pytest.raises(ValueError):
        TranslationKernel(kind="log2d", d=3)
    with pytest.raises(ValueError):
        TranslationKernel(kind="fourier", d=2)


def test_newtonian_kernel_value():
    k = TranslationKernel(kind="newtonian", d=3)
    # -1/((d-2) sigma_{d-1}) / r = -1/(4 pi r)
    assert float(k(np.array(2.0))) == pytest.approx(-1.0 / (8 * np.pi))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_pareto_round_trip_random_measures(seed):
    g = build_grid([0.0, 0.0], [3.0, 3.0], [1.0, 1.0])
    w = np.random.default_rng(seed).normal(size=g.n_points)
    op = SurvivalTransform(g, Cone.pareto(2))
    back = op.apply_inverse(op.apply(w))
    assert np.abs(back - w).max() < 1e-10
