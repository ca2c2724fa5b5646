import functools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix

from dualgen import generator_core, matrix_lab
from dualgen.errors import CFLWarning, DimensionMismatch, Overflow
from dualgen.generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    ProcessSpec,
    QMatrix,
    SeparableJumpKernel,
    discretize,
)
from dualgen.matrix_lab import (
    SurvivalTransform,
    action_mismatch,
    dual_generator_via_F,
    dual_semigroup_via_F,
    dual_stochasticity_check,
    duality_residual,
    entrywise_mismatch,
    forward_F_matrix,
    interior_mask,
    inverse_F_matrix,
    semigroup,
)
from dualgen.scenario import load_scenario, run_scenario
from dualgen.state_space import (
    Cone,
    build_grid,
    duality_indicator_matrix,
    lightcone_2d,
)
from test_generator_core import _discretize_loop


def _const(v):
    return lambda s, _v=float(v): _v * np.ones_like(np.asarray(s, dtype=float))


def _random_conservative(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n_points
    Q = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return QMatrix(entries=Q, state_grid=grid)


def test_F_matrices_exact_mutual_inverses_pareto():
    g = build_grid([0.0, 0.0], [3.0, 2.0], [1.0, 1.0])
    c = Cone.pareto(2)
    F = forward_F_matrix(g, c)
    Finv = inverse_F_matrix(g, c)
    assert np.abs(F @ Finv - np.eye(g.n_points)).max() == 0.0


def test_F_matrices_exact_mutual_inverses_lightcone():
    g = build_grid([-2.0, -2.0], [2.0, 2.0], [1.0, 1.0])
    c = lightcone_2d()
    F = forward_F_matrix(g, c)
    Finv = inverse_F_matrix(g, c)
    assert np.abs(F @ Finv - np.eye(g.n_points)).max() < 1e-12


_OPERATOR_CASES = [
    (build_grid([0.0], [8.0], [1.0]), Cone.pareto(1)),
    (build_grid([0.0, 0.0], [4.0, 3.0], [1.0, 1.0]), Cone.pareto(2)),
    (build_grid([0.0] * 3, [2.0, 1.0, 3.0], [1.0] * 3), Cone.pareto(3)),
    (build_grid([-2.0, -2.0], [2.0, 2.0], [1.0, 1.0]), lightcone_2d()),
]


@pytest.mark.parametrize("grid,cone", _OPERATOR_CASES)
def test_survival_transform_matches_dense_reference(grid, cone):
    # reference: F = f' from the indicator, inverted numerically
    F = duality_indicator_matrix(grid, cone).T
    Finv = np.linalg.inv(F)
    rng = np.random.default_rng(grid.n_points)
    n = grid.n_points
    A = rng.normal(size=(n, n))
    w = rng.normal(size=(n, 3))
    op = SurvivalTransform(grid, cone)
    assert np.abs(op.conjugate(A) - F @ A.T @ Finv).max() < 1e-12
    assert np.abs(op.apply(w) - F @ w).max() < 1e-12
    assert np.abs(op.apply_inverse(w) - Finv @ w).max() < 1e-12
    assert np.abs(op.apply_transpose(w) - F.T @ w).max() < 1e-12
    assert np.abs(op.apply(w[:, 0]) - F @ w[:, 0]).max() < 1e-12


def _dense_residual(T, TD, f):
    """The duality residual max |T f - f TD'| with the n x n indicator f."""
    return float(np.abs(T.T @ f - f @ TD.T.T).max())


@pytest.mark.parametrize("grid,cone", _OPERATOR_CASES)
def test_duality_residual_matches_dense_indicator_formula(grid, cone):
    f = duality_indicator_matrix(grid, cone)
    q = _random_conservative(grid, grid.n_points)
    op = SurvivalTransform(grid, cone)
    T = semigroup(q, 0.8)
    n = grid.n_points
    wrong = matrix_lab.SemigroupSnapshot(
        t=0.8, factors=(np.random.default_rng(7).normal(size=(n, n)),))
    for TD in (dual_semigroup_via_F(T, op), wrong):
        want = _dense_residual(T, TD, f)
        assert abs(duality_residual(T, TD, op) - want) <= 1e-12 * max(1.0, want)


def test_semigroup_two_state_closed_form():
    g = build_grid([0.0], [1.0], [1.0])
    q = QMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]), state_grid=g)
    for t in (0.1, 1.0, 3.0):
        T = semigroup(q, t).T
        p = 0.5 * (1.0 + np.exp(-2.0 * t))
        assert np.abs(T - [[p, 1 - p], [1 - p, p]]).max() < 1e-12


_NON_SYMMETRIC_Q = np.array([[-1.0, 1.0, 0.0],
                             [0.5, -2.0, 1.5],
                             [0.0, 3.0, -3.0]])


def _three_state():
    return QMatrix(entries=_NON_SYMMETRIC_Q,
                   state_grid=build_grid([0.0], [2.0], [1.0]))


def test_semigroup_check_catches_transposed_exponential(monkeypatch):
    # expm(A / 2) squared would repeat the same wrong algorithm and agree
    # with it to rounding; the probe-vector check uses another algorithm
    monkeypatch.setattr(matrix_lab, "expm",
                        lambda A: scipy.linalg.expm(A.T))
    with pytest.raises(Overflow, match="self-check failed"):
        semigroup(_three_state(), 0.7)


def test_semigroup_one_expm_call(monkeypatch):
    calls = []

    def counting_expm(A):
        calls.append(A.shape)
        return scipy.linalg.expm(A)

    monkeypatch.setattr(matrix_lab, "expm", counting_expm)
    q = _three_state()
    for k, t in enumerate((0.1, 0.7, 2.0), start=1):
        semigroup(q, t)
        assert len(calls) == k


_ONE_AXIS_JUMP = SeparableJumpKernel(components=((1, AtomicJumpKernel(
    jumps=(((0.5,), 1.2), ((-0.25,), 0.8)))),))


def _per_axis_spec(dim, jump=None):
    """Per-axis drift of both signs and diffusion: a Kronecker-sum Q."""
    drifts = (lambda s: 0.3 - 0.8 * s, lambda s: np.sin(2.0 * s),
              lambda s: -0.4 + 0.0 * s)
    diffusions = (lambda s: 0.5 + 0.1 * np.cos(s), _const(0.3),
                  lambda s: 0.2 + 0.1 * s * s)
    return ProcessSpec(dim=dim, drift_components=drifts[:dim],
                       diffusion_diag=diffusions[:dim], jump=jump)


_SEPARABLE_CASES = {
    "2d-reflect": (_per_axis_spec(2), build_grid(
        [-1.0, -1.0], [1.0, 1.5], [0.25, 0.25], "reflect")),
    "2d-truncate-jump": (_per_axis_spec(2, _ONE_AXIS_JUMP), build_grid(
        [-1.0, -1.0], [1.0, 1.0], [0.25, 0.25], "truncate_mass")),
    "2d-mixed-jump": (_per_axis_spec(2, _ONE_AXIS_JUMP), build_grid(
        [-1.0, 0.0], [1.0, 2.0], [0.25, 0.25],
        [("reflect", "truncate_mass"), ("truncate_mass", "reflect")])),
    "3d-mixed": (_per_axis_spec(3), build_grid(
        [-1.0] * 3, [1.0, 0.5, 1.0], [0.5, 0.25, 0.5],
        [("truncate_mass", "reflect"), "reflect",
         ("reflect", "truncate_mass")])),
}


def _counting_expm(monkeypatch, transform=lambda A: A):
    calls = []

    def counted(A):
        calls.append(A.shape)
        return scipy.linalg.expm(transform(A))

    monkeypatch.setattr(matrix_lab, "expm", counted)
    return calls


@pytest.mark.parametrize("name", sorted(_SEPARABLE_CASES))
def test_semigroup_of_a_kronecker_sum_exponentiates_per_axis(name,
                                                            monkeypatch):
    spec, grid = _SEPARABLE_CASES[name]
    q = discretize(spec, grid)
    calls = _counting_expm(monkeypatch)
    for t in (0.3, 1.0):
        T = semigroup(q, t).T
        want = scipy.linalg.expm(t * q.entries)
        assert np.abs(T - want).max() <= \
            1e-13 * max(1.0, np.abs(want).sum(axis=1).max())
    assert calls == [(m, m) for m in grid.shape] * 2


def _perturbed(q):
    Q = q.entries.copy()
    Q[5, 6] += 1e-9
    return QMatrix(entries=Q, state_grid=q.state_grid)


_DENSE_CASES = {
    "absorbing-face": lambda: discretize(_per_axis_spec(2), build_grid(
        [-1.0, -1.0], [1.0, 1.0], [0.25, 0.25],
        [("reflect", "absorb"), "reflect"])),
    "two-axis-jump": lambda: discretize(
        _per_axis_spec(2, AtomicJumpKernel(jumps=(((0.25, 0.25), 0.7),))),
        build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.25], "reflect")),
    "perturbed-entry": lambda: _perturbed(discretize(
        *_SEPARABLE_CASES["2d-reflect"])),
}


@pytest.mark.parametrize("name", sorted(_DENSE_CASES))
def test_semigroup_of_a_non_separable_q_is_one_dense_expm(name, monkeypatch):
    q = _DENSE_CASES[name]()
    calls = _counting_expm(monkeypatch)
    T = semigroup(q, 0.5).T
    assert calls == [(q.n, q.n)]
    assert np.array_equal(T, scipy.linalg.expm(0.5 * q.entries))


def test_semigroup_check_catches_wrong_kronecker_factors(monkeypatch):
    spec, grid = _SEPARABLE_CASES["2d-reflect"]    # 9 x 11 points
    q = discretize(spec, grid)
    calls = _counting_expm(monkeypatch, transform=lambda A: A.T)
    with pytest.raises(Overflow, match="self-check failed"):
        semigroup(q, 0.5)
    assert calls == [(9, 9), (11, 11)]


def test_semigroup_separability_test_scales_with_the_norm(monkeypatch):
    # the benchmark's 2-D diffusion at t = 500: ||tQ|| is about 5e4.  The
    # factors stay finite: none grows like exp(t |Q[0, 0]|) while another
    # decays like its inverse.
    q, grid = _bench_case(6)
    calls = _counting_expm(monkeypatch)
    T = semigroup(q, 500.0).T
    assert calls == [(m, m) for m in grid.shape]
    want = scipy.linalg.expm(500.0 * q.entries)
    assert np.abs(T - want).max() <= \
        1e-13 * max(1.0, np.abs(want).sum(axis=1).max())


_DIFFUSION_2D = {"dim": 2, "drift": ["-0.3*x1", "0.2 - 0.3*x2"],
                 "diffusion": ["0.5 + 0.1*cos(x1)", "0.4 + 0.1*sin(x2)"]}


def _bench_2d(side):
    """The benchmark's 2-D diffusion on a side x side reflecting grid."""
    half = 0.2 * (side - 1) / 2.0
    return load_scenario({
        "name": f"diff2d-{side}", "mode": "verify-matrix",
        "process": _DIFFUSION_2D,
        "grid": {"lower": [-half] * 2, "upper": [half] * 2,
                 "spacing": [0.2, 0.2], "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0, 0.0], "y": [0.0, 0.0], "t": 0.5}],
    })


def _bench_spec(side):
    s = _bench_2d(side)
    return s.process, s.grid


def _bench_case(side):
    spec, grid = _bench_spec(side)
    return discretize(spec, grid), grid


_FACTORED_CASES = {
    **{name: (lambda c=case: c) for name, case in _SEPARABLE_CASES.items()},
    # the benchmark's two 2-D grid shapes at its tiny scale
    **{f"bench-{side}x{side}": (lambda side=side: _bench_spec(side))
       for side in (5, 6)},
}


def _axis_reference(spec, grid):
    """The per-axis generators of the per-axis specs above, assembled
    here: each axis's drift, diffusion and separable jump components as a
    1-D spec, discretized on a 1-D grid built from that axis's range,
    spacing and face policies."""
    out = []
    for k in range(grid.dim):
        comps = [c for axis, c in getattr(spec.jump, "components", ())
                 if axis == k]
        axis_spec = ProcessSpec(dim=1,
                                drift_components=(spec.drift_components[k],),
                                diffusion_diag=(spec.diffusion_diag[k],),
                                jump=comps[0] if comps else None)
        axis_grid = build_grid(grid.lower[k], grid.upper[k], grid.spacing[k],
                               [grid.boundary_policy[k]])
        out.append(discretize(axis_spec, axis_grid).entries)
    return out


@pytest.mark.parametrize("name", sorted(_FACTORED_CASES))
def test_factored_and_dense_verify_agree(name):
    spec, grid = _FACTORED_CASES[name]()
    q = discretize(spec, grid)
    op = SurvivalTransform(grid, Cone.pareto(grid.dim))
    for t in (0.3, 1.0):
        T = semigroup(q, t)
        assert [A.shape for A in T.factors] == [(m, m) for m in grid.shape]
        want_T = functools.reduce(np.kron, [
            matrix_lab.expm(t * G) for G in _axis_reference(spec, grid)])
        assert np.array_equal(T.T, want_T)
        TD = dual_semigroup_via_F(T, op)
        assert len(TD.factors) == grid.dim
        # the same snapshot multiplied out is the one-factor case
        dense = matrix_lab.SemigroupSnapshot(t=t, factors=(T.T,))
        dense_TD = dual_semigroup_via_F(dense, op)
        assert len(dense_TD.factors) == 1
        assert abs(duality_residual(T, TD, op)
                   - duality_residual(dense, dense_TD, op)) <= 1e-13
        rep, want = (dual_stochasticity_check(TD),
                     dual_stochasticity_check(dense_TD))
        assert rep.passed == want.passed
        assert abs(rep.min_entry - want.min_entry) <= 1e-13
        assert abs(rep.max_rowsum_defect - want.max_rowsum_defect) <= 1e-13


def _birth_death(m, up, down):
    """Reflecting birth-death generator on m states."""
    Q = np.diag([up] * (m - 1), 1) + np.diag([down] * (m - 1), -1)
    return Q - np.diag(Q.sum(axis=1))


def test_factored_check_flags_a_separable_non_monotone_chain(monkeypatch):
    # the non-monotone 3-state chain below on axis 0, a reflecting
    # birth-death chain on axis 1: the dual is not a Markov semigroup
    Q0 = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    Q1 = _birth_death(5, 0.7, 0.4)
    g = build_grid([0.0, 0.0], [2.0, 4.0], [1.0, 1.0], "reflect")
    q = QMatrix(state_grid=g, generators=(Q0, Q1))
    op = SurvivalTransform(g, Cone.pareto(2))
    calls = _counting_expm(monkeypatch)
    T = semigroup(q, 0.5)
    assert calls == [(3, 3), (5, 5)]
    TD = dual_semigroup_via_F(T, op)
    rep = dual_stochasticity_check(TD)
    assert rep.passed is False and rep.min_entry < -1e-6
    i, j = rep.worst_entry_index
    assert TD.T[i, j] == rep.min_entry == TD.T.min()
    dense = dual_semigroup_via_F(
        matrix_lab.SemigroupSnapshot(t=0.5, factors=(T.T,)), op)
    want = dual_stochasticity_check(dense)
    assert want.passed is False
    assert rep.worst_entry_index == want.worst_entry_index
    assert abs(rep.min_entry - want.min_entry) <= 1e-13


def test_factored_verify_builds_no_n_by_n_array(tmp_path, monkeypatch):
    s = _bench_2d(32)                       # 1024 states
    n = s.grid.n_points
    op = SurvivalTransform(s.grid, Cone.pareto(2))
    semigroup(discretize(s.process, s.grid), 0.5)   # scipy's first-call caches
    tracemalloc.start()
    try:
        q = discretize(s.process, s.grid)
        T = semigroup(q, 0.5)
        TD = dual_semigroup_via_F(T, op)
        duality_residual(T, TD, op)
        dual_stochasticity_check(TD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8

    product = matrix_lab.SemigroupSnapshot.T.fget

    def guarded(snap):
        if len(snap.factors) > 1:
            raise RuntimeError("a factored snapshot was multiplied out")
        return product(snap)

    monkeypatch.setattr(matrix_lab.SemigroupSnapshot, "T", property(guarded))
    with pytest.raises(RuntimeError, match="multiplied out"):
        semigroup(q, 0.5).T
    entries = vars(QMatrix)["entries"]

    class Unread:
        """`QMatrix.entries` refusing to form a Kronecker sum."""

        def __get__(self, q, owner):
            if q is not None and len(q.generators) > 1:
                raise RuntimeError("a separable Q was assembled")
            return entries.__get__(q, owner)

        def __set__(self, q, Q):
            entries.__set__(q, Q)

    monkeypatch.setattr(QMatrix, "entries", Unread())
    with pytest.raises(RuntimeError, match="separable Q was assembled"):
        discretize(s.process, s.grid).entries
    report = run_scenario(s, out_dir=str(tmp_path))
    assert report["pass"] and report["results"]["stochasticity"]["pass"]


def test_factored_snapshot_against_a_one_factor_wrong_dual():
    spec, grid = _SEPARABLE_CASES["2d-reflect"]
    q = discretize(spec, grid)
    op = SurvivalTransform(grid, Cone.pareto(2))
    T = semigroup(q, 1.0)
    assert len(T.factors) == 2
    wrong = matrix_lab.SemigroupSnapshot(t=1.0, factors=(T.T.T.copy(),))
    want = _dense_residual(T, wrong, duality_indicator_matrix(grid,
                                                              Cone.pareto(2)))
    got = duality_residual(T, wrong, op)
    assert got > 0.01 and abs(got - want) <= 1e-12 * want


_BOX_2D = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "spacing": [0.25, 0.25]}

# name -> (process, grid, cone) of a verify-matrix scenario
_DEFECT_CASES = {
    "2d-separable-pareto": (_DIFFUSION_2D,
                            {**_BOX_2D, "boundary_policy": "reflect"},
                            {"type": "pareto"}),
    "2d-absorbing-face": (_DIFFUSION_2D,
                          {**_BOX_2D, "boundary_policy": [
                              ["reflect", "absorb"], "reflect"]},
                          {"type": "pareto"}),
    "2d-vectors-cone": (_DIFFUSION_2D,
                        {**_BOX_2D, "boundary_policy": "reflect"},
                        {"type": "vectors",
                         "vectors": [[1.0, 0.0], [1.0, 1.0]]}),
    "1d-chain": ({"dim": 1, "drift": ["-0.2*x1"],
                  "diffusion": ["0.5 + 0.1*cos(x1)"],
                  "jumps": [{"displacement": [0.5], "rate": 0.6},
                            {"displacement": [-0.5], "rate": 0.4}]},
                 {"lower": [-2.0], "upper": [2.0], "spacing": [0.1],
                  "boundary_policy": "reflect"},
                 {"type": "pareto"}),
}


@pytest.mark.parametrize("name", sorted(_DEFECT_CASES))
def test_verify_matrix_catches_F_inverse_in_place_of_its_transpose(
        name, tmp_path, monkeypatch):
    process, grid, cone = _DEFECT_CASES[name]
    dim = process["dim"]
    s = load_scenario({
        "name": name, "mode": "verify-matrix", "process": process,
        "grid": grid, "cone": cone,
        "probes": [{"x": [0.0] * dim, "y": [0.0] * dim, "t": t}
                   for t in (0.25, 1.0)],
    })
    residual_max = s.tolerances["residual_max"]
    good = run_scenario(s, out_dir=str(tmp_path / "good"))
    assert good["results"]["residual"] <= 1e-13
    # the conjugation F A' F^-1 becomes F A' F^-T
    monkeypatch.setattr(SurvivalTransform, "_apply_inverse_transpose",
                        SurvivalTransform.apply_inverse)
    bad = run_scenario(s, out_dir=str(tmp_path / "bad"))
    assert bad["results"]["residual"] > residual_max
    assert not bad["pass"]
    assert all(row["residual"] > residual_max
               for row in bad["results"]["per_time"])


def test_separable_q_under_a_dense_F_matches_the_dense_dual():
    # the light cone is not a product of 1-D orders, so F is dense and
    # the factored T is multiplied out first
    spec, grid = _SEPARABLE_CASES["2d-reflect"]
    q = discretize(spec, grid)
    cone = lightcone_2d()
    T = semigroup(q, 0.5)
    assert len(T.factors) == 2
    TD = dual_semigroup_via_F(T, SurvivalTransform(grid, cone))
    assert len(TD.factors) == 1
    want = forward_F_matrix(grid, cone) @ T.T.T @ inverse_F_matrix(grid, cone)
    assert np.abs(TD.T - want).max() <= 1e-12


def _chain_with_jumps():
    spec = ProcessSpec.one_dim(
        a=lambda x: 0.5 + 0.1 * np.cos(x), b=lambda x: -0.2 * x,
        nu=AtomicJumpKernel(jumps=(((0.5,), 0.6), ((-0.5,), 0.4))))
    return discretize(spec, build_grid([-2.0], [2.0], [0.1], "reflect"))


# name -> (Q, expm calls per fresh time)
_CHAIN_CASES = {
    "1d-jumps": lambda: (_chain_with_jumps(), 1),
    "2d-separable": lambda: (discretize(*_SEPARABLE_CASES["2d-reflect"]), 2),
    "2d-absorbing-face": lambda: (_DENSE_CASES["absorbing-face"](), 1),
}
# times -> how many of them take a fresh expm
_TIME_SETS = {(0.25, 0.5, 1.0): 1, (0.3, 0.7, 1.9): 3, (0.0, 1.0): 2,
              (0.7,): 1}


@pytest.mark.parametrize("name", sorted(_CHAIN_CASES))
@pytest.mark.parametrize("times", sorted(_TIME_SETS))
def test_chained_semigroup_equals_independent_exponentials(name, times,
                                                          monkeypatch):
    q, per_time = _CHAIN_CASES[name]()
    calls = _counting_expm(monkeypatch)
    snaps = semigroup(q, times)
    assert [s.t for s in snaps] == list(times)
    for snap in snaps:
        want = scipy.linalg.expm(snap.t * q.entries)
        assert np.abs(snap.T - want).max() <= \
            1e-13 * max(1.0, np.abs(want).sum(axis=1).max())
    assert len(calls) == per_time * _TIME_SETS[times]
    if per_time == 1:
        assert set(calls) == {(q.n, q.n)}


def test_semigroup_returns_the_times_in_the_order_given(monkeypatch):
    q = _chain_with_jumps()
    calls = _counting_expm(monkeypatch)
    snaps = semigroup(q, [1.0, 0.25, 0.5, 0.25])
    assert [s.t for s in snaps] == [1.0, 0.25, 0.5, 0.25]
    assert snaps[1] is snaps[3]
    assert len(calls) == 1
    assert np.array_equal(snaps[0].T, semigroup(q, 1.0).T)
    assert semigroup(q, []) == ()


@pytest.mark.parametrize("name", ["1d-jumps", "2d-separable"])
def test_chained_check_catches_a_stale_factor(name, monkeypatch):
    q, _ = _CHAIN_CASES[name]()
    # T(0.5) taken as T(0.25) itself instead of T(0.25) T(0.25)
    monkeypatch.setattr(matrix_lab, "_compose", lambda earlier, step: earlier)
    with pytest.raises(Overflow, match="self-check failed at t = 0.5:"):
        semigroup(q, (0.25, 0.5, 1.0))


def _expm_multiply_chain(A, V, steps):
    """The reference: scipy's expm_multiply, one call per step."""
    from scipy.sparse.linalg import expm_multiply
    out = []
    for step in steps:
        V = expm_multiply(step * A, V)
        out.append(V)
    return out


_TAYLOR_CASES = {
    **{name: (lambda case=case: case()[0].entries)
       for name, case in _CHAIN_CASES.items()},
    "3-state": lambda: _NON_SYMMETRIC_Q,
}


@pytest.mark.parametrize("name", sorted(_TAYLOR_CASES))
@pytest.mark.parametrize("steps", [(0.25, 0.25, 0.5), (0.3, 0.4, 1.2),
                                   (0.0, 1.0), (0.7,)])
@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_taylor_chain_agrees_with_expm_multiply(name, steps, sparse):
    Q = _TAYLOR_CASES[name]()
    A = csr_matrix(Q) if sparse else Q
    V = np.random.default_rng(3).uniform(-1.0, 1.0, size=(len(Q), 2))
    got = matrix_lab._uniformized_chain(A, V, steps)
    want = _expm_multiply_chain(csr_matrix(Q), V, steps)
    assert len(got) == len(steps)
    for W, R in zip(got, want):
        assert np.abs(W - R).max() <= \
            1e-13 * max(1.0, np.abs(R).sum(axis=1).max())


def test_taylor_chain_of_the_zero_generator_is_the_identity():
    V = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 2))
    for A in (np.zeros((5, 5)), csr_matrix(np.zeros((5, 5)))):
        out = matrix_lab._uniformized_chain(A, V, (0.5, 2.0))
        assert len(out) == 2
        assert all(np.array_equal(W, V) for W in out)
    assert matrix_lab._uniformized_chain(np.zeros((5, 5)), V, ()) == []
    # -cI uniformizes to P = 0: exactly exp(-c t) V
    W, = matrix_lab._uniformized_chain(-2.0 * np.eye(5), V, (0.5,))
    assert np.allclose(W, np.exp(-1.0) * V, rtol=1e-15, atol=0.0)


# the benchmark's chain1d with its coefficients unperturbed (the benchmark
# moves each by at most 5% with its seed): a 401-state reflected 1-D chain
# with jumps, lambda = max |q_ii| about 506
_BENCH_CHAIN = {"dim": 1, "drift": ["-0.2*x1"],
                "diffusion": ["0.5 + 0.1*cos(x1)"],
                "jumps": [{"displacement": [0.5], "rate": 0.6},
                          {"displacement": [-0.5], "rate": 0.4}]}
_BENCH_CHAIN_TIMES = (0.25, 0.5, 1.0)


def _bench_chain():
    s = load_scenario({
        "name": "chain1d", "mode": "verify-matrix", "process": _BENCH_CHAIN,
        "grid": {"lower": [-10.0], "upper": [10.0], "spacing": [0.05],
                 "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0], "y": [0.0], "t": t}
                   for t in _BENCH_CHAIN_TIMES]})
    return discretize(s.process, s.grid)


def test_uniformized_chain_matvecs_on_the_bench_chain(monkeypatch):
    # about lambda d + O(sqrt(lambda d)) matvecs per step d, where a
    # truncated-Taylor action on a general matrix takes about 5 lambda d
    import scipy.sparse
    q = _bench_chain()
    A = csr_matrix(q.entries)
    V = np.random.default_rng(0).uniform(-1.0, 1.0, size=(q.n, 2))
    calls = []
    matmul = scipy.sparse.csr_matrix.__matmul__

    def counting(self, other):
        if np.shape(other) == V.shape:
            calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", counting)
    steps = (0.25, 0.25, 0.5)
    matrix_lab._uniformized_chain(A, V, steps)
    lam = np.abs(q.entries.diagonal()).max()
    assert 500.0 < lam < 510.0
    bound = sum(lam * d + 10.0 * np.sqrt(lam * d) + 10.0 for d in steps)
    assert lam * sum(steps) < len(calls) <= bound


def test_semigroup_check_error_on_the_bench_chain():
    snaps = semigroup(_bench_chain(), _BENCH_CHAIN_TIMES)
    assert all(0.0 <= s.check_error < 1e-12 for s in snaps)


def test_uniformized_chain_refuses_a_matrix_that_is_not_sub_markov():
    # a negative off-diagonal entry: P = I + Q / 2 has ||P||_inf = 2, so
    # lambda t (rho - 1) = 2 t passes the domain bound 1 at t > 0.5
    Q = np.array([[-2.0, 3.0, -1.0],
                  [1.0, -1.0, 0.0],
                  [0.0, 1.0, -1.0]])
    V = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 2))
    for A in (Q, csr_matrix(Q)):
        with pytest.raises(Overflow, match="sub-Markov generator.* = 2 > 1"):
            matrix_lab._uniformized_chain(A, V, (0.25, 0.5))
        W, = matrix_lab._uniformized_chain(A, V, (0.25,))
        assert np.abs(W - scipy.linalg.expm(0.25 * Q) @ V).max() < 1e-14
    q = QMatrix(entries=Q, state_grid=build_grid([0.0], [2.0], [1.0]))
    with pytest.raises(Overflow, match="sub-Markov generator"):
        semigroup(q, 1.0)
    # no diagonal at all: not a generator, and refused too
    with pytest.raises(Overflow, match="sub-Markov generator"):
        matrix_lab._uniformized_chain(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                      V[:2], (0.1,))


def test_semigroup_check_on_a_separable_grid_runs_on_the_factors(
        monkeypatch):
    spec, grid = _SEPARABLE_CASES["3d-mixed"]      # 5 x 7 x 5 points
    q = discretize(spec, grid)
    seen = []
    chain = matrix_lab._uniformized_chain

    def spy(A, V, steps):
        seen.append((A.shape, V.shape, tuple(steps)))
        return chain(A, V, steps)

    monkeypatch.setattr(matrix_lab, "_uniformized_chain", spy)
    snaps = semigroup(q, (0.25, 0.5, 1.0))
    assert [(a, v[0]) for a, v, _ in seen] == \
        [((m, m), m) for m in grid.shape]
    assert all(v[0] < q.n and steps == (0.25, 0.25, 0.5)
               for _, v, steps in seen)
    for snap in snaps:
        want = scipy.linalg.expm(snap.t * q.entries)
        assert np.abs(snap.T - want).max() <= \
            1e-13 * max(1.0, np.abs(want).sum(axis=1).max())


def test_snapshot_takes_factors_only():
    for kwargs in ({}, {"T": np.eye(2)}):
        with pytest.raises(TypeError):
            matrix_lab.SemigroupSnapshot(t=0.0, **kwargs)
    snap = matrix_lab.SemigroupSnapshot(t=0.0, factors=(np.eye(2),
                                                        np.eye(3)))
    assert snap.n == 6 and np.array_equal(snap.T, np.eye(6))


def test_semigroup_records_norm_and_check_error():
    q = _three_state()
    snap = semigroup(q, 0.7)
    assert snap.norm == pytest.approx(0.7 * 6.0)    # row 3: |-3| + 3
    assert 0.0 <= snap.check_error < 1e-12
    assert np.array_equal(snap.T, matrix_lab.expm(0.7 * _NON_SYMMETRIC_Q))
    dual = dual_semigroup_via_F(
        snap, SurvivalTransform(q.state_grid, Cone.pareto(1)))
    assert dual.norm is None and dual.check_error is None


def test_semigroup_rejects_nan_generator():
    Q = _NON_SYMMETRIC_Q.copy()
    Q[1, 2] = np.nan
    q = QMatrix(entries=Q, state_grid=build_grid([0.0], [2.0], [1.0]))
    with pytest.raises(Overflow):
        semigroup(q, 0.5)


def _norm_1(A):
    return np.abs(A).sum(axis=0).max()


def _assert_near_scipy(got, A):
    want = scipy.linalg.expm(A)
    assert np.abs(got - want).max() <= \
        1e-13 * max(1.0, np.abs(want).sum(axis=1).max())


# ||A||_1 for each branch of expm: just under theta_3, theta_5, theta_7
# and theta_9 (Higham 2005, Table 2.3), degree 13 unscaled, and scaled
_BRANCH_NORMS = (1.495585217958292e-2, 2.539398330063230e-1,
                 9.504178996162932e-1, 2.097847961257068, 4.0, 40.0)


@pytest.mark.parametrize("norm", _BRANCH_NORMS)
def test_expm_on_every_pade_branch(norm):
    norm *= 1.0 - 2.0 ** -20
    # a non-normal matrix of both signs, against scipy
    B = np.random.default_rng(3).normal(size=(7, 7)) + 2.0 * np.eye(7, k=1)
    A = B * (norm / _norm_1(B))
    _assert_near_scipy(matrix_lab.expm(A), A)
    # two 2 x 2 matrices against their closed forms: ||A^k||_1 is
    # ||A||_1^k, the worst case the thresholds theta_m are set for.  The
    # two-state generator decays, and the all-ones matrix grows as e^norm.
    A = 0.5 * norm * np.array([[-1.0, 1.0], [1.0, -1.0]])
    d = -0.5 * np.expm1(-norm)
    assert np.abs(matrix_lab.expm(A) - [[1 - d, d], [d, 1 - d]]).max() \
        <= 1e-15
    A = np.full((2, 2), 0.5 * norm)
    want = np.eye(2) + 0.5 * np.expm1(norm)
    assert np.abs(matrix_lab.expm(A) - want).max() <= \
        1e-13 * np.abs(want).sum(axis=1).max()


def test_expm_matches_scipy_on_the_bench_generators():
    q, _ = _bench_case(6)
    for A in (0.25 * _bench_chain().entries, 500.0 * q.entries):
        _assert_near_scipy(matrix_lab.expm(A), A)


def _six_state_q():
    return _random_conservative(build_grid([0.0], [5.0], [1.0]), 6).entries


@pytest.mark.parametrize("Q", [_NON_SYMMETRIC_Q, _six_state_q()],
                         ids=["3-state", "6-state"])
def test_expm_against_a_40_digit_reference(Q):
    mpmath = pytest.importorskip("mpmath")

    def reference(A):
        with mpmath.workdps(40):
            return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(),
                            dtype=float)

    # ||tQ||_1 from 1e-3 to 30 on a geometric ladder, then far past it
    ladder = np.geomspace(1e-3, 30.0, 12) / _norm_1(Q)
    for t, tol in [(t, 4e-15) for t in ladder] + [(50.0, 1e-13),
                                                    (500.0, 1e-13)]:
        want = reference(t * Q)
        err = np.abs(matrix_lab.expm(t * Q) - want).max()
        assert err <= tol * max(1.0, np.abs(want).sum(axis=1).max()), t


def test_expm_of_zero_and_of_no_states():
    assert np.array_equal(matrix_lab.expm(np.zeros((4, 4))), np.eye(4))
    assert matrix_lab.expm(np.zeros((0, 0))).shape == (0, 0)


def test_expm_of_twice_the_time_is_the_square_bit_for_bit():
    # doubling ||A|| adds one squaring of the same scaled matrix, so the
    # chained T(0.25) T(0.25) of `semigroup` is a fresh expm(0.5 Q)
    Q = _bench_chain().entries
    T = matrix_lab.expm(0.25 * Q)
    assert np.array_equal(matrix_lab.expm(0.5 * Q), T @ T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_rejects_a_nan_or_infinite_entry(bad):
    A = _NON_SYMMETRIC_Q.copy()
    A[2, 0] = bad
    with pytest.raises(Overflow, match="NaN or infinite"):
        matrix_lab.expm(A)


def test_semigroup_rejects_negative_time_and_huge_systems():
    g = build_grid([0.0], [1.0], [1.0])
    q = QMatrix(entries=np.zeros((2, 2)), state_grid=g)
    with pytest.raises(ValueError):
        semigroup(q, -1.0)
    big = QMatrix(entries=np.zeros((4097, 4097)),
                  state_grid=build_grid([0.0], [4096.0], [1.0]))
    with pytest.raises(Overflow):
        semigroup(big, 1.0)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,), (2, 2, 1)])
def test_qmatrix_rejects_entries_not_n_by_n_for_its_grid(shape):
    g = build_grid([0.0], [1.0], [1.0])                    # 2 points
    with pytest.raises(DimensionMismatch, match="grid of 2 points"):
        QMatrix(entries=np.zeros(shape), state_grid=g)


_ZERO_AXIS_GRID = build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.25],
                             "reflect")

# name -> (spec, grid) of a separable spec: d generators
_GENERATOR_CASES = {
    **{name: (lambda c=case: c) for name, case in _SEPARABLE_CASES.items()},
    # the benchmark's two 2-D diffusions
    **{f"bench-{side}x{side}": (lambda side=side: _bench_spec(side))
       for side in (32, 45)},
    # no coefficient and no channel on axis 0: its generator is zero
    "2d-jump-on-axis-1": lambda: (ProcessSpec(dim=2, jump=_ONE_AXIS_JUMP),
                                  _ZERO_AXIS_GRID),
}


@pytest.mark.parametrize("name", sorted(_GENERATOR_CASES))
def test_discretize_hands_over_the_per_axis_generators(name):
    # the Kronecker sum of the generators against the state-by-state
    # reference: off the diagonal to the bit, on it to rounding, as the
    # sum adds the axes' diagonal entries in another order
    spec, grid = _GENERATOR_CASES[name]()
    q = discretize(spec, grid)
    assert [G.shape for G in q.generators] == [(m, m) for m in grid.shape]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _discretize_loop(spec, grid)
    off = ~np.eye(q.n, dtype=bool)
    assert np.array_equal(q.entries[off], want[off])
    norm = np.abs(want).sum(axis=1).max()
    assert np.abs(np.diagonal(q.entries) - np.diagonal(want)).max() \
        <= 1e-12 * norm


def test_an_axis_with_nothing_on_it_gets_the_zero_generator():
    spec, grid = _GENERATOR_CASES["2d-jump-on-axis-1"]()
    G0, G1 = discretize(spec, grid).generators
    assert not G0.any() and G1.any()


def _jump_scenario(rate):
    """A 2-D scenario with one-axis jump channels at the given rate."""
    return load_scenario({
        "name": "jumps-2d", "mode": "verify-matrix",
        "process": {"dim": 2, "diffusion": ["0.5", "0.4"],
                    "jumps": [{"displacement": [0.5, 0.0], "rate": rate},
                              {"displacement": [0.0, -0.25], "rate": 0.4}]},
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                 "spacing": [0.25, 0.25], "boundary_policy": "reflect"},
        "cone": {"type": "pareto"},
        "probes": [{"x": [0.0, 0.0], "y": [0.0, 0.0], "t": 0.5}],
    })


@pytest.mark.parametrize("rate,per_time", [(0.6, 2), ("0.5 + 0.1*cos(x1)", 1)],
                         ids=["numeric-rate", "expression-rate"])
def test_scenario_jump_channels_factor_only_at_numeric_rates(rate, per_time,
                                                             monkeypatch):
    s = _jump_scenario(rate)
    q = discretize(s.process, s.grid)
    calls = _counting_expm(monkeypatch)
    semigroup(q, (0.3, 0.7))
    assert len(calls) == 2 * per_time


def _density_2d(x, W):
    return np.exp(-np.sum((W - x) ** 2, axis=-1))


# name -> (spec, grid) that has the one generator Q
_ONE_GENERATOR_CASES = {
    "absorbing-face": (_per_axis_spec(2), build_grid(
        [-1.0, -1.0], [1.0, 1.0], [0.25, 0.25],
        [("reflect", "absorb"), "reflect"])),
    "two-axis-jump": (_per_axis_spec(2, AtomicJumpKernel(
        jumps=(((0.25, 0.25), 0.7),))), _ZERO_AXIS_GRID),
    "offdiag-diffusion": (ProcessSpec(
        dim=2, diffusion_diag=(_const(0.5), _const(0.4)),
        diffusion_offdiag={(0, 1): lambda xi, xj: 0.1 + 0.0 * xi}),
        _ZERO_AXIS_GRID),
    "generic-callables": (ProcessSpec(
        dim=2, drift=lambda x: -0.3 * x,
        diffusion=lambda x: np.diag([0.5, 0.4])), _ZERO_AXIS_GRID),
    "density-kernel": (ProcessSpec(dim=2, jump=DensityJumpKernel(
        density=_density_2d)), _ZERO_AXIS_GRID),
    "1d-grid": (ProcessSpec.one_dim(a=0.5, b=-0.2),
                build_grid([-1.0], [1.0], [0.25], "reflect")),
}


@pytest.mark.parametrize("name", sorted(_ONE_GENERATOR_CASES))
def test_a_spec_that_is_not_separable_has_one_generator(name):
    q = discretize(*_ONE_GENERATOR_CASES[name])
    assert len(q.generators) == 1 and q.generators[0] is q.entries


@pytest.mark.parametrize("shapes", [[(3, 3), (2, 2)], [(2, 2)], [(3, 3)],
                                    [(2, 3), (3, 3)], [(6, 6), (2, 2)],
                                    [(2, 2), (3, 3), (1, 1)], [(5, 5)],
                                    [(6, 6)]])
def test_qmatrix_rejects_generators_of_the_wrong_shapes(shapes):
    g = build_grid([0.0, 0.0], [1.0, 2.0], [1.0, 1.0])    # 2 x 3 points
    with pytest.raises(DimensionMismatch, match="generators of shapes"):
        QMatrix(state_grid=g, generators=tuple(np.zeros(s) for s in shapes))
    q = QMatrix(state_grid=g, generators=(np.zeros((2, 2)), np.zeros((3, 3))))
    assert q.entries.shape == (6, 6)
    # Q and its generators are one matrix: it takes one of the two
    with pytest.raises(TypeError, match="one of the two"):
        QMatrix(state_grid=g, entries=np.zeros((6, 6)),
                generators=(np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(DimensionMismatch, match=r"shapes \[\]"):
        QMatrix(state_grid=g)


def test_separable_spec_warns_cfl_once():
    spec = ProcessSpec(dim=2, drift_components=(_const(5.0), _const(-5.0)),
                       diffusion_diag=(_const(0.01), _const(0.01)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        q = discretize(spec, _ZERO_AXIS_GRID)
    assert len(q.generators) == 2
    assert [w.category for w in seen] == [CFLWarning]


def test_conjugation_identity_random_chains():
    for seed, grid in [(1, build_grid([0.0], [9.0], [1.0])),
                       (2, build_grid([0.0, 0.0], [4.0, 3.0], [1.0, 1.0]))]:
        q = _random_conservative(grid, seed)
        cone = Cone.pareto(grid.dim)
        op = SurvivalTransform(grid, cone)
        for t in (0.1, 1.0, 5.0):
            T = semigroup(q, t)
            TD = dual_semigroup_via_F(T, op)
            assert duality_residual(T, TD, op) <= 1e-9


def test_wrong_dual_has_large_residual():
    grid = build_grid([0.0], [4.0], [1.0])
    q = _random_conservative(grid, 3)
    op = SurvivalTransform(grid, Cone.pareto(1))
    T = semigroup(q, 1.0)
    from dualgen.matrix_lab import SemigroupSnapshot
    wrong = SemigroupSnapshot(t=1.0, factors=(T.T.T.copy(),))  # not the dual
    assert duality_residual(T, wrong, op) > 0.01


def test_zero_time_residual_zero():
    grid = build_grid([0.0], [4.0], [1.0])
    q = _random_conservative(grid, 4)
    op = SurvivalTransform(grid, Cone.pareto(1))
    T = semigroup(q, 0.0)
    assert duality_residual(T, dual_semigroup_via_F(T, op), op) == 0.0


def test_dual_semigroup_law():
    grid = build_grid([0.0], [7.0], [1.0])
    q = _random_conservative(grid, 5)
    op = SurvivalTransform(grid, Cone.pareto(1))
    s, t = 0.4, 0.9
    Ts, Tt, Tst = (dual_semigroup_via_F(semigroup(q, u), op).T
                   for u in (s, t, s + t))
    assert np.abs(Tst - Ts @ Tt).max() <= 1e-9


def test_dual_generator_matches_semigroup_derivative():
    grid = build_grid([0.0], [7.0], [1.0])
    q = _random_conservative(grid, 6)
    cone = Cone.pareto(1)
    qd = dual_generator_via_F(q, grid, cone).entries
    op = SurvivalTransform(grid, cone)
    eps = 1e-6
    TD = dual_semigroup_via_F(semigroup(q, eps), op).T
    assert np.abs((TD - np.eye(len(TD))) / eps - qd).max() < 1e-4


def test_dual_stochasticity_monotone_birth_death():
    spec = ProcessSpec.one_dim(a=_const(0.5))
    g = build_grid([0.0], [6.0], [0.5], boundary_policy="reflect")
    q = discretize(spec, g)
    TD = dual_semigroup_via_F(semigroup(q, 0.5),
                              SurvivalTransform(g, Cone.pareto(1)))
    rep = dual_stochasticity_check(TD)
    assert rep.passed and rep.worst_entry_index is None
    # absorbed at the bottom of the order: the first dual row is frozen
    assert TD.T[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_dual_stochasticity_flags_non_monotone_chain():
    # jumps 0 <-> 2 over a frozen middle state: P(X_t >= 2 | x) is not
    # monotone in x, so the Siegmund dual is not a Markov semigroup
    g = build_grid([0.0], [2.0], [1.0])
    Q = np.array([[-1.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0],
                  [1.0, 0.0, -1.0]])
    q = QMatrix(entries=Q, state_grid=g)
    TD = dual_semigroup_via_F(semigroup(q, 0.5),
                              SurvivalTransform(g, Cone.pareto(1)))
    rep = dual_stochasticity_check(TD)
    assert not rep.passed
    assert rep.min_entry < -1e-6
    i, j = rep.worst_entry_index
    assert TD.T[i, j] == rep.min_entry


def test_identity_snapshot_passes():
    from dualgen.matrix_lab import SemigroupSnapshot
    snap = SemigroupSnapshot(t=0.0, factors=(np.eye(5),))
    assert dual_stochasticity_check(snap).passed


def test_mismatch_metrics_zero_for_identical():
    grid = build_grid([0.0], [7.0], [1.0])
    q = _random_conservative(grid, 7)
    assert entrywise_mismatch(q, q) == 0.0
    assert action_mismatch(q, q) == 0.0


def test_interior_mask_excludes_faces():
    g = build_grid([0.0, 0.0], [4.0, 4.0], [1.0, 1.0])
    mask = interior_mask(g, 2).reshape(g.shape)
    assert mask[2, 2] and not mask[0, 2] and not mask[2, 4] and not mask[1, 1]
