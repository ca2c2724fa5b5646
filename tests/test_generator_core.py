import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgen.dual_builder import ParetoDualJumpKernelND
from dualgen.errors import (
    CFLWarning,
    ClippingWarning,
    DimensionMismatch,
    NonFiniteCoefficient,
    NotSeparable,
    Overflow,
    StructureViolation,
    UnsupportedScheme,
)
from dualgen.generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    ProcessSpec,
    SeparableJumpKernel,
    discretize,
    map_targets,
    validate_qmatrix,
)
from dualgen.monte_carlo import StableLikeKernel
from dualgen.scenario import load_scenario
from dualgen.state_space import BOUNDARY_POLICIES, build_grid


def _const(v):
    return lambda s, _v=float(v): _v * np.ones_like(np.asarray(s, dtype=float))


def test_diffusion_interior_stencil():
    spec = ProcessSpec.one_dim(a=_const(0.5))
    g = build_grid([0.0], [4.0], [0.5])
    Q = discretize(spec, g).entries
    i = 4                                    # interior state
    h2 = 0.5 ** 2
    assert Q[i, i - 1] == pytest.approx(0.5 / h2)
    assert Q[i, i + 1] == pytest.approx(0.5 / h2)
    assert Q[i, i] == pytest.approx(-1.0 / h2)


def test_upwind_drift_direction():
    g = build_grid([-2.0], [2.0], [0.5])
    Qp = discretize(ProcessSpec.one_dim(b=_const(1.0)), g).entries
    Qm = discretize(ProcessSpec.one_dim(b=_const(-1.0)), g).entries
    i = 4
    assert Qp[i, i + 1] == pytest.approx(2.0) and Qp[i, i - 1] == 0.0
    assert Qm[i, i - 1] == pytest.approx(2.0) and Qm[i, i + 1] == 0.0


def test_reflecting_boundary_conservative():
    spec = ProcessSpec.one_dim(a=_const(1.0))
    g = build_grid([0.0], [3.0], [1.0], boundary_policy="reflect")
    q = discretize(spec, g)
    rep = validate_qmatrix(q, conservative=True)
    assert rep.passed
    # edge mirror: the suppressed outward move returns to the boundary
    # state itself, leaving only the inward rate
    assert q.entries[0, 1] == pytest.approx(1.0)
    assert q.entries[0, 0] == pytest.approx(-1.0)


def test_absorbing_boundary_zero_rows():
    spec = ProcessSpec.one_dim(a=_const(1.0))
    g = build_grid([0.0], [3.0], [1.0], boundary_policy="absorb")
    Q = discretize(spec, g).entries
    assert np.all(Q[0] == 0.0) and np.all(Q[-1] == 0.0)


def test_truncating_boundary_kills_mass():
    spec = ProcessSpec.one_dim(a=_const(1.0))
    g = build_grid([0.0], [3.0], [1.0])
    q = discretize(spec, g)
    rep = validate_qmatrix(q, conservative=False)
    assert rep.passed
    assert q.entries[0].sum() < -0.5        # outward flux killed


def test_map_target_boundary_conventions():
    g = build_grid([0.0], [4.0], [1.0], boundary_policy="reflect")
    # edge mirror of -1 is 0; 6 mirrors about the top edge 4.5 to 3
    assert list(map_targets(g, [[-1.0], [-2.0], [6.0]])) == [0, 1, 3]
    g_abs = build_grid([0.0], [4.0], [1.0], boundary_policy="absorb")
    assert list(map_targets(g_abs, [-3.0])) == [0]
    g_tr = build_grid([0.0], [4.0], [1.0])
    assert list(map_targets(g_tr, [-1.0])) == [-1]
    # off the lattice a target goes to its nearest grid point first, so
    # one less than half a cell beyond a truncate_mass face stays
    assert list(map_targets(g_tr, [-0.3, 4.4, -0.6])) == [0, 4, -1]


def _scalar_map_target(grid, w, tol=1e-6):
    """Reference rule in continuous space, one point at a time: fold the
    point about each face, up to 64 passes per axis, then round; None
    where truncate_mass drops it."""
    w = np.asarray(w, dtype=float).copy()
    for axis in range(grid.dim):
        lo, hi = grid.lower[axis], grid.upper[axis]
        pol_lo, pol_hi = grid.boundary_policy[axis]
        h_ax = grid.spacing[axis]
        for _ in range(64):
            if w[axis] < lo - tol * h_ax:
                if pol_lo == "reflect":
                    w[axis] = 2 * lo - w[axis] - h_ax
                elif pol_lo == "absorb":
                    w[axis] = lo
                else:
                    return None
            elif w[axis] > hi + tol * h_ax:
                if pol_hi == "reflect":
                    w[axis] = 2 * hi - w[axis] + h_ax
                elif pol_hi == "absorb":
                    w[axis] = hi
                else:
                    return None
            else:
                break
    idx = np.rint((w - grid.lower) / grid.spacing).astype(int)
    idx = np.clip(idx, 0, np.array(grid.shape) - 1)
    return int(np.ravel_multi_index(tuple(idx), grid.shape, order="C"))


_POLICY_PAIRS = [(lo, hi) for lo in BOUNDARY_POLICIES
                 for hi in BOUNDARY_POLICIES]


@st.composite
def _grid_and_lattice_targets(draw, first_axis_policy):
    dim = draw(st.integers(1, 2))
    sizes = [draw(st.integers(2, 7)) for _ in range(dim)]
    spacing = [draw(st.sampled_from([0.25, 0.5, 1.0, 0.3])) for _ in sizes]
    lower = [draw(st.sampled_from([-1.0, 0.0, 0.7])) for _ in sizes]
    policy = [first_axis_policy] + [draw(st.sampled_from(_POLICY_PAIRS))
                                    for _ in sizes[1:]]
    grid = build_grid(lower, [lo + h * (n - 1) for lo, h, n in
                              zip(lower, spacing, sizes)], spacing, policy)
    # integer coordinates up to three box widths outside on either side
    K = np.array(draw(st.lists(st.tuples(*[st.integers(-3 * n, 4 * n - 1)
                                           for n in sizes]),
                               min_size=1, max_size=40)))
    return grid, grid.lower + K * grid.spacing


@pytest.mark.parametrize("policy", _POLICY_PAIRS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_map_targets_equals_the_scalar_rule_on_lattice_targets(policy, data):
    grid, W = data.draw(_grid_and_lattice_targets(policy))
    want = [_scalar_map_target(grid, w) for w in W]
    assert list(map_targets(grid, W)) == [-1 if i is None else i
                                          for i in want]


def test_atomic_jump_rates_placed():
    nu = AtomicJumpKernel(jumps=(((2.0,), 3.0),))
    spec = ProcessSpec.one_dim(nu=nu)
    g = build_grid([0.0], [8.0], [1.0])
    Q = discretize(spec, g).entries
    assert Q[1, 3] == pytest.approx(3.0)
    assert Q[1, 1] == pytest.approx(-3.0)


def test_separable_jump_moves_one_axis():
    up = AtomicJumpKernel(jumps=(((1.0,), 2.0),))
    nu = SeparableJumpKernel(components=((1, up),))
    spec = ProcessSpec(dim=2, jump=nu)
    g = build_grid([0.0, 0.0], [2.0, 2.0], [1.0, 1.0])
    Q = discretize(spec, g).entries
    i = np.ravel_multi_index((1, 1), g.shape)
    j = np.ravel_multi_index((1, 2), g.shape)
    assert Q[i, j] == pytest.approx(2.0)


def test_separable_jump_component_beyond_the_dimension_rejected():
    # a component on axis 2 of a 2-D process moves no axis of its states
    up = AtomicJumpKernel(jumps=(((1.0,), 2.0),))
    for axis in (2, -1):
        with pytest.raises(DimensionMismatch, match=f"axis {axis} of a 2-D"):
            ProcessSpec(dim=2, jump=SeparableJumpKernel(((axis, up),)))
    assert ProcessSpec(dim=2, jump=SeparableJumpKernel(((1, up),))).dim == 2


def test_cross_diffusion_positive_stencil_conservative():
    spec = ProcessSpec(
        dim=2,
        diffusion_diag=(_const(1.0), _const(1.0)),
        diffusion_diag_deriv=(_const(0.0), _const(0.0)),
        diffusion_offdiag={(0, 1): lambda xi, xj: 0.5},
    )
    g = build_grid([0.0, 0.0], [3.0, 3.0], [1.0, 1.0],
                   boundary_policy="reflect")
    rep = validate_qmatrix(discretize(spec, g))
    assert rep.passed


def test_cfl_warning_on_drift_dominated():
    spec = ProcessSpec.one_dim(a=_const(0.01), b=_const(5.0))
    g = build_grid([0.0], [4.0], [1.0])
    with pytest.warns(CFLWarning):
        discretize(spec, g)


def test_dimension_mismatch():
    spec = ProcessSpec.one_dim(a=_const(1.0))
    g = build_grid([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        discretize(spec, g)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
def test_discretization_conditionally_positive(a, b):
    spec = ProcessSpec.one_dim(a=_const(a), b=_const(b))
    g = build_grid([-2.0], [2.0], [0.5], boundary_policy="reflect")
    rep = validate_qmatrix(discretize(spec, g))
    assert rep.passed


# ---------------------------------------------------------------------------
# reference: the state-by-state assembly loop that `discretize` batches

def _loop_neighbor(grid, midx, axis, step):
    j = midx[axis] + step
    n = grid.shape[axis]
    pol_lo, pol_hi = grid.boundary_policy[axis]
    if j < 0:
        if pol_lo == "reflect":
            j = -j - 1
        elif pol_lo == "absorb":
            j = 0
        else:
            return None
    elif j >= n:
        if pol_hi == "reflect":
            j = 2 * n - 1 - j
        elif pol_hi == "absorb":
            j = n - 1
        else:
            return None
    out = list(midx)
    out[axis] = j
    return tuple(out)


def _loop_absorbing(grid):
    idx = set()
    for axis in range(grid.dim):
        pol_lo, pol_hi = grid.boundary_policy[axis]
        for end, pol in ((0, pol_lo), (grid.shape[axis] - 1, pol_hi)):
            if pol != "absorb":
                continue
            grids = [np.arange(n) for n in grid.shape]
            grids[axis] = np.array([end])
            mesh = np.meshgrid(*grids, indexing="ij")
            flat = np.ravel_multi_index([m.ravel() for m in mesh], grid.shape)
            idx.update(int(i) for i in flat)
    return idx


def _ref_drift(spec, x):
    """b at one state x, one coefficient call per component."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if spec.drift_components is not None:
        b = np.array([float(bj(x[j]))
                      for j, bj in enumerate(spec.drift_components)])
    elif spec.drift is not None:
        b = np.atleast_1d(np.asarray(spec.drift(x), dtype=float))
    else:
        b = np.zeros(spec.dim)
    return b


def _ref_diffusion(spec, x):
    """a at one state x, one coefficient call per entry."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.zeros((spec.dim, spec.dim))
    if spec.diffusion_diag is not None:
        for j, ajj in enumerate(spec.diffusion_diag):
            a[j, j] = float(ajj(x[j]))
        for (i, j), aij in (spec.diffusion_offdiag or {}).items():
            a[i, j] = a[j, i] = float(aij(x[i], x[j]))
    elif spec.diffusion is not None:
        a = np.asarray(spec.diffusion(x), dtype=float).reshape(a.shape)
    return a


def _discretize_loop(spec, grid):
    n_states = grid.n_points
    Q = np.zeros((n_states, n_states))
    h = grid.spacing
    pts = grid.points()
    shape = grid.shape
    absorbing = _loop_absorbing(grid)
    cfl_warned = False
    clip_warned = False
    jump_matrix = None
    if spec.jump is not None:
        jump_matrix = spec.jump.generator_matrix(grid)

    for i in range(n_states):
        if i in absorbing:
            continue
        x = pts[i]
        midx = np.unravel_index(i, shape, order="C")

        def add(target_midx, rate):
            if target_midx is None:
                Q[i, i] -= rate
                return
            j = int(np.ravel_multi_index(target_midx, shape, order="C"))
            if j != i:
                Q[i, j] += rate
                Q[i, i] -= rate

        b = _ref_drift(spec, x)
        a = _ref_diffusion(spec, x) if spec.has_diffusion() else None
        if a is not None:
            off_budget = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
            diag_rates = np.diag(a) - off_budget
            if np.any(diag_rates < -1e-12):
                if not clip_warned:
                    warnings.warn(
                        "cross-diffusion terms clipped to preserve positivity",
                        ClippingWarning)
                    clip_warned = True
                diag_rates = np.clip(diag_rates, 0.0, None)
            for ax in range(spec.dim):
                r = diag_rates[ax] / h[ax] ** 2
                if r != 0.0:
                    add(_loop_neighbor(grid, midx, ax, +1), r)
                    add(_loop_neighbor(grid, midx, ax, -1), r)
                if not cfl_warned and a[ax, ax] > 0 and \
                        abs(b[ax]) * h[ax] > 2.0 * a[ax, ax]:
                    warnings.warn(
                        f"drift dominates diffusion at spacing {h[ax]} "
                        f"(axis {ax})", CFLWarning)
                    cfl_warned = True
            for ai in range(spec.dim):
                for aj in range(ai + 1, spec.dim):
                    if a[ai, aj] == 0.0:
                        continue
                    m = abs(a[ai, aj]) / (h[ai] * h[aj])
                    sgn = 1 if a[ai, aj] > 0 else -1
                    for direction in (+1, -1):
                        t = _loop_neighbor(grid, midx, ai, direction)
                        if t is not None:
                            t = _loop_neighbor(grid, t, aj, direction * sgn)
                        add(t, m)

        for ax in range(spec.dim):
            if b[ax] > 0:
                add(_loop_neighbor(grid, midx, ax, +1), b[ax] / h[ax])
            elif b[ax] < 0:
                add(_loop_neighbor(grid, midx, ax, -1), -b[ax] / h[ax])

        if jump_matrix is not None:
            Q[i] += jump_matrix[i]

    return Q


def _cross_spec(dim, scale):
    """Diffusion with state-dependent cross terms of both signs, clipped
    where scale * |sin| exceeds the diagonal budget."""
    def diffusion(x):
        a = np.diag(0.4 + 0.1 * x * x)
        for i in range(dim):
            for j in range(i + 1, dim):
                a[i, j] = a[j, i] = scale * np.sin(1.3 * x[i] - 0.7 * x[j])
        return a

    def drift(x):
        return np.array([np.sin(2.0 * x[k] + k) for k in range(dim)])
    return ProcessSpec(dim=dim, drift=drift, diffusion=diffusion)


_UP_DOWN = AtomicJumpKernel(jumps=(((0.5,), 1.2), ((-0.75,), 0.8)))

_ASSEMBLY_CASES = {
    "1d-reflect": (
        ProcessSpec.one_dim(a=lambda x: 0.5 + 0.1 * x * x,
                            b=lambda x: 0.1 - 0.4 * np.tanh(x)),
        build_grid([-2.0], [2.0], [0.25], "reflect")),
    "1d-truncate-atomic": (
        ProcessSpec.one_dim(a=_const(0.3), b=lambda x: np.sin(x), nu=_UP_DOWN),
        build_grid([-2.0], [2.0], [0.25])),
    # compensated below 0.6, declared as its drift: -x less 0.5 * 1.2
    "1d-absorb-compensated": (
        ProcessSpec.one_dim(a=_const(0.3), b=lambda x: -x - 0.6, nu=_UP_DOWN),
        build_grid([-2.0], [2.0], [0.25], "absorb")),
    "1d-mixed-density": (
        ProcessSpec.one_dim(b=lambda x: np.cos(3.0 * x), nu=DensityJumpKernel(
            density=lambda x, W: np.exp(-np.abs(W[:, 0] - x[0])))),
        build_grid([0.0], [3.0], [0.25], [("absorb", "reflect")])),
    "1d-cfl": (
        ProcessSpec.one_dim(a=lambda x: 0.01 + 0.0 * x,
                            b=lambda x: 5.0 * np.sign(x - 0.3)),
        build_grid([-1.0], [1.0], [0.25], "reflect")),
    "2d-reflect-clipped": (
        _cross_spec(2, 0.6), build_grid([-1.0, -1.0], [1.0, 1.5], [0.25, 0.25],
                                        "reflect")),
    "2d-absorb-clipped": (
        _cross_spec(2, 0.6), build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.5],
                                        "absorb")),
    "2d-truncate": (
        _cross_spec(2, 0.2), build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.25])),
    "2d-mixed": (
        _cross_spec(2, 0.6), build_grid(
            [-1.0, 0.0], [1.0, 2.0], [0.25, 0.25],
            [("absorb", "reflect"), ("truncate_mass", "reflect")])),
    "2d-separable-jump": (
        ProcessSpec(dim=2, diffusion_diag=(_const(0.5), _const(0.2)),
                    diffusion_offdiag={(0, 1): lambda xi, xj: -0.1 * xi * xj},
                    drift_components=(lambda s: -s, lambda s: np.sin(s)),
                    jump=SeparableJumpKernel(components=((1, _UP_DOWN),))),
        build_grid([-1.0, -1.0], [1.0, 1.0], [0.25, 0.25],
                   [("reflect", "reflect"), ("absorb", "truncate_mass")])),
    "2d-generator-matrix": (
        ProcessSpec(dim=2, diffusion_diag=(_const(0.5), _const(0.5)),
                    jump=ParetoDualJumpKernelND(base=AtomicJumpKernel(
                        jumps=(((1.0, 0.0), 0.7), ((0.0, -1.0), 0.4))))),
        build_grid([0.0, 0.0], [3.0, 3.0], [1.0, 1.0], "reflect")),
    "3d-mixed-clipped": (
        _cross_spec(3, 0.5), build_grid(
            [-1.0, -1.0, -1.0], [1.0, 1.0, 0.5], [0.5, 0.5, 0.5],
            [("reflect", "absorb"), "truncate_mass", ("absorb", "reflect")])),
    "3d-reflect": (
        _cross_spec(3, 0.15), build_grid([-1.0] * 3, [1.0] * 3, [0.5] * 3,
                                         "reflect")),
}


_GRID_2D = build_grid([-1.0, -1.0], [1.0, 1.5], [0.25, 0.25])

_EVALUATOR_CASES = {
    **_ASSEMBLY_CASES,
    "generic-full": (ProcessSpec(
        dim=2, drift=lambda x: np.array([x[1], -np.sin(x[0])]),
        diffusion=lambda x: np.array([[1.0 + x[0] ** 2, 0.3 * x[0] * x[1]],
                                      [0.3 * x[0] * x[1], 0.8]])),
        _GRID_2D),
    "declared-offdiag": (ProcessSpec(
        dim=2, drift_components=(lambda s: -s, _const(0.2)),
        diffusion_diag=(lambda s: 1.0 + 0.1 * s * s, _const(0.7)),
        diffusion_offdiag={(0, 1): lambda u, v: 0.2 * np.sin(u - v)}),
        _GRID_2D),
    "python-scalar": (ProcessSpec(
        dim=2, drift_components=(lambda s: 0.5, lambda s: -s),
        diffusion_diag=(lambda s: 1.0, lambda s: 0.5 + 0.0 * s)), _GRID_2D),
    # compensated below 0.6, declared as its drift: the +0.5 channel at
    # 1.2 on axis 0 and the -0.25 channel at 0.7 on axis 1
    "2d-separable-compensated": (ProcessSpec(
        dim=2, drift_components=(lambda s: np.sin(s) - 0.6,
                                 lambda s: -0.5 * s + 0.175),
        diffusion_diag=(_const(0.4), _const(0.3)),
        jump=SeparableJumpKernel(components=(
            (0, _UP_DOWN),
            (1, AtomicJumpKernel(jumps=(
                ((1.0,), lambda x: 1.0 + 0.5 * np.tanh(x[0])),
                ((-0.25,), 0.7))))))), _GRID_2D),
}


@pytest.mark.parametrize("name", sorted(_EVALUATOR_CASES))
def test_evaluators_match_per_state_reference(name):
    spec, grid = _EVALUATOR_CASES[name]
    X = grid.points()
    B = spec.drift_at(X)
    A = spec.diffusion_at(X)
    assert B.shape == X.shape and A.shape == X.shape + (spec.dim,)
    assert np.array_equal(B, [_ref_drift(spec, x) for x in X])
    assert np.array_equal(A, [_ref_diffusion(spec, x) for x in X])
    # one state given as a vector
    assert np.array_equal(spec.drift_at(X[3]), B[3])
    assert np.array_equal(spec.diffusion_at(X[3]), A[3])


_RATE_EXPRESSIONS = (
    "1 + 0.5*tanh(x1)", "exp(-x1*x1) + 0.1", "max(0.2, min(1, x1 + 0.5))",
    "0.3*abs(sin(3*x1)) + pow(x1, 2)/10")


def _expression_kernel(dim):
    """An atomic kernel whose rates are scenario expressions, and one
    constant, as `load_scenario` builds it."""
    extra = " + 0.2*cos(x1 - x%d)" % dim if dim > 1 else ""
    jumps = [{"displacement": [0.5 * (k + 1)] + [0.0] * (dim - 1),
              "rate": src + extra}
             for k, src in enumerate(_RATE_EXPRESSIONS)]
    jumps.append({"displacement": [-1.0] * dim, "rate": 0.7})
    return load_scenario({"name": "rates", "mode": "dual",
                          "process": {"dim": dim, "jumps": jumps}}).process.jump


@pytest.mark.parametrize("name", sorted(_EVALUATOR_CASES))
def test_expression_rates_match_per_state_calls(name):
    # an expression rate is evaluated on all states at once; the values
    # are those of the per-state calls, to the bit
    grid = _EVALUATOR_CASES[name][1]
    kernel = _expression_kernel(grid.dim)
    X = np.vstack([grid.points(), np.random.default_rng(grid.dim).uniform(
        -3.0, 3.0, size=(2000, grid.dim))])
    want = [[float(rate(x)) if callable(rate) else rate
             for _, rate in kernel.jumps] for x in X]
    assert np.array_equal(kernel.rates_at(X), want)


def _outcome(fn, spec, grid):
    """Q and the warnings in order."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        q = fn(spec, grid)
    return getattr(q, "entries", q), [(w.category, str(w.message))
                                      for w in seen]


def _same_outcome(spec, grid):
    (want, want_warnings) = _outcome(_discretize_loop, spec, grid)
    (got, got_warnings) = _outcome(discretize, spec, grid)
    assert np.array_equal(got, want)
    assert got_warnings == want_warnings
    return want_warnings


@pytest.mark.parametrize("name", sorted(_ASSEMBLY_CASES))
def test_discretize_matches_state_loop(name):
    _same_outcome(*_ASSEMBLY_CASES[name])


def test_warnings_and_positivity_violation_in_state_order():
    # CFL holds at the first states; the cross terms exceed the diagonal
    # only right of 0
    def diffusion(x):
        c = 0.6 if x[0] > 0.0 else 0.0
        return np.array([[0.01 if x[0] < -0.9 else 0.5, c], [c, 0.5]])

    spec = ProcessSpec(dim=2, drift=lambda x: np.array([5.0, 0.0]),
                       diffusion=diffusion)
    grid = build_grid([-1.0, -1.0], [1.0, 1.0], [0.5, 0.5], "reflect")
    assert [c for c, _ in _same_outcome(spec, grid)] == [
        CFLWarning, ClippingWarning]


def test_nan_drift_raises_naming_the_grid_point():
    # log is NaN left of 0; the stencil used to drop such a drift silently
    spec = ProcessSpec.one_dim(a=_const(0.5), b=np.log)
    grid = build_grid([-1.05], [0.95], [0.1], "reflect")
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteCoefficient,
                          match=r"drift b is nan at grid point \[-1\.05\]"):
        discretize(spec, grid)


def test_non_finite_diffusion_and_jump_rates_raise():
    grid = build_grid([0.0], [2.0], [0.5], "reflect")
    bad_a = ProcessSpec.one_dim(a=lambda s: np.where(s > 1.2, np.inf, 1.0))
    with pytest.raises(NonFiniteCoefficient,
                       match=r"diffusion a is inf .*\[1\.5\]"):
        discretize(bad_a, grid)
    bad_rate = ProcessSpec.one_dim(nu=AtomicJumpKernel(
        jumps=(((0.5,), lambda x: np.nan if x[0] == 1.0 else 1.0),)))
    with pytest.raises(NonFiniteCoefficient,
                       match=r"jump rate is nan .*state 2"):
        discretize(bad_rate, grid)


def test_kernels_without_grid_rows_rejected_at_entry():
    grid = build_grid([-1.0], [1.0], [0.5], "reflect")
    stable = ProcessSpec.one_dim(nu=StableLikeKernel(
        alpha=1.5, amplitude=lambda x: np.ones(len(x))))
    with pytest.raises(UnsupportedScheme, match="no generator rows"):
        discretize(stable, grid)
    density = DensityJumpKernel(density=lambda x, W: np.exp(-W[:, 0] ** 2))
    with pytest.raises(NotSeparable, match="axis 1 is a DensityJumpKernel"):
        SeparableJumpKernel(components=((1, density),))


def test_discretize_refuses_a_grid_above_the_state_cap():
    # 65 x 65 = 4225 states: refused before Q (143 MB) is allocated or a
    # coefficient is evaluated
    def never(x):
        raise AssertionError("a coefficient was evaluated")

    spec = ProcessSpec(dim=2, drift=never, diffusion=never)
    grid = build_grid([0.0, 0.0], [64.0, 64.0], [1.0, 1.0], "reflect")
    tracemalloc.start()
    try:
        with pytest.raises(Overflow, match="4225 states exceeds"):
            discretize(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_jump_rows_placed_for_all_states_at_once():
    # displacement channels, a far one among them, a callable rate and
    # mixed faces, against the rates placed state by state by the scalar
    # rule
    nu = AtomicJumpKernel(jumps=(((1.0, -0.5), lambda x: 1.0 + x[0] ** 2),
                                 ((-1.5, 2.5), 0.4),
                                 ((0.0, 2.0), 0.0)))
    grid = build_grid([-1.0, -1.0], [1.0, 1.5], [0.5, 0.5],
                      [("reflect", "truncate_mass"), ("absorb", "reflect")])
    pts = grid.points()
    want = np.zeros((len(pts), len(pts)))
    for i, x in enumerate(pts):
        for w, r in ((x + (1.0, -0.5), 1.0 + x[0] ** 2),
                     (x + (-1.5, 2.5), 0.4)):
            j = _scalar_map_target(grid, w)
            if j is not None:
                want[i, j] += r
        want[i, i] = -(want[i].sum() - want[i, i])
    assert np.array_equal(nu.generator_matrix(grid), want)


@pytest.mark.parametrize("policy", ["truncate_mass", "reflect", "absorb",
                                    [("reflect", "truncate_mass"),
                                     ("absorb", "reflect")]])
def test_separable_rows_are_the_kronecker_sum_of_the_axis_rows(policy):
    # two components on axis 1, one on axis 0, a callable rate, a jump
    # longer than two box widths of axis 1: off the diagonal the rates of
    # each state placed by the scalar rule, on it minus their sum
    # (self-loops left out) up to rounding
    comps = ((1, AtomicJumpKernel(jumps=(((1.0,), lambda x: 1.0 + x[0] ** 2),
                                         ((0.5,), 0.2)))),
             (0, AtomicJumpKernel(jumps=(((-0.5,), 0.4), ((1.0,), 0.3)))),
             (1, AtomicJumpKernel(jumps=(((-1.0,), 0.6), ((7.0,), 0.1)))))
    grid = build_grid([-1.0, -1.0], [1.0, 1.5], [0.5, 0.5], policy)
    pts = grid.points()
    want = np.zeros((len(pts), len(pts)))
    for i, x in enumerate(pts):
        for axis, kern in comps:
            for (w,), r in kern.jumps:
                y = x.copy()
                y[axis] += w
                j = _scalar_map_target(grid, y)
                if j is not None and j != i:
                    want[i, j] += r(x[[axis]]) if callable(r) else r
    Q = SeparableJumpKernel(comps).generator_matrix(grid)
    off = ~np.eye(len(pts), dtype=bool)
    assert np.array_equal(Q[off], want[off])
    assert np.abs(np.diag(Q) + want.sum(axis=1)).max() < 1e-14


@pytest.mark.parametrize("field", ["drift_components", "diffusion_diag",
                                   "diffusion_diag_deriv"])
@pytest.mark.parametrize("entries", [1, 3])
def test_per_axis_declarations_need_one_entry_per_axis(field, entries):
    # a 2-D spec with one drift component once read uninitialized memory
    # as its axis-1 drift; three components raised a bare IndexError
    kw = {"diffusion_diag": (_const(1.0),) * 2}
    kw[field] = (_const(0.5),) * entries
    with pytest.raises(DimensionMismatch, match=f"{field} has {entries}"):
        ProcessSpec(dim=2, **kw)


@pytest.mark.parametrize("domain, boundary", [
    ("half_line", None), ("half_line", "none"), ("full_space", "reflect"),
    ("full_space", "absorb")])
def test_half_line_and_its_boundary_go_together(domain, boundary):
    # a half line with no boundary was simulated on the whole line
    with pytest.raises(StructureViolation, match="half line"):
        ProcessSpec.one_dim(a=_const(0.5), domain=domain, boundary=boundary)


_UNIT_UP = (((1.0,), 1.0),)

# each builds a spec that declares a part twice, or in a form no consumer
# reads; before, each was accepted and some consumer went quietly wrong
_REFUSED_AT_CONSTRUCTION = {
    # discretize moved (0, 0) to (1, 1), thinning both coordinates
    "1-entry-displacement-in-2d": (
        lambda: ProcessSpec(dim=2, jump=AtomicJumpKernel(jumps=_UNIT_UP)),
        DimensionMismatch, "not a vector of length 2"),
    # the dual was built from the first entry
    "2-entry-displacement-in-1d": (
        lambda: ProcessSpec.one_dim(nu=AtomicJumpKernel(
            jumps=(((1.0, 0.0), 1.0),))),
        DimensionMismatch, "not a vector of length 1"),
    "2-entry-displacement-in-a-separable-component": (
        lambda: ProcessSpec(dim=2, jump=SeparableJumpKernel(
            ((1, AtomicJumpKernel(jumps=(((0.0, 1.0), 1.0),))),))),
        DimensionMismatch, "not a vector of length 1"),
    # drift_at and the dual ignored the generic drift
    "generic-drift-beside-components": (
        lambda: ProcessSpec(dim=1, drift=lambda x: -x,
                            drift_components=(_const(0.5),)),
        StructureViolation, "drift is declared both"),
    # the dual probed the generic diffusion against the declaration
    "generic-diffusion-beside-diag": (
        lambda: ProcessSpec(dim=1, diffusion=lambda x: np.eye(1),
                            diffusion_diag=(_const(1.0),),
                            diffusion_diag_deriv=(_const(0.0),)),
        StructureViolation, "diffusion is declared both"),
    # the dual drifted at a' = 1 with no diffusion
    "derivative-without-diag": (
        lambda: ProcessSpec.one_dim(b=0.0, da=1.0),
        StructureViolation, "diffusion_diag_deriv needs diffusion_diag"),
    # diffusion_at returned 0
    "offdiag-without-diag": (
        lambda: ProcessSpec(dim=2, drift_components=(_const(0.0),) * 2,
                            diffusion_offdiag={(0, 1): lambda xi, xj: 0.1}),
        StructureViolation, "diffusion_offdiag needs diffusion_diag"),
    # discretize raised a bare IndexError
    "offdiag-key-beyond-dim": (
        lambda: ProcessSpec(dim=2, diffusion_diag=(_const(1.0),) * 2,
                            diffusion_offdiag={(0, 2): lambda xi, xj: 0.1}),
        DimensionMismatch, r"key \(0, 2\) is not a pair i < j"),
    # discretize used it as (0, 1), its arguments swapped
    "offdiag-key-reversed": (
        lambda: ProcessSpec(dim=2, diffusion_diag=(_const(1.0),) * 2,
                            diffusion_offdiag={(1, 0): lambda xi, xj: 0.1}),
        DimensionMismatch, r"key \(1, 0\) is not a pair i < j"),
    # every consumer ignored it
    "unknown-boundary-name": (
        lambda: ProcessSpec.one_dim(a=_const(0.5), boundary="reflecting"),
        StructureViolation, "boundary 'reflecting'"),
    "target-map": (
        lambda: AtomicJumpKernel(jumps=((lambda x: -x, 1.0),)),
        StructureViolation, "channel 0 is a target map"),
    "more-rate-derivs-than-channels": (
        lambda: AtomicJumpKernel(jumps=_UNIT_UP, rate_derivs=(0.0, 0.0)),
        StructureViolation, "2 rate derivatives for 1 jump channels"),
}


@pytest.mark.parametrize("case", _REFUSED_AT_CONSTRUCTION)
def test_a_spec_declares_each_part_once_in_a_form_its_consumers_read(case):
    build, error, message = _REFUSED_AT_CONSTRUCTION[case]
    with pytest.raises(error, match=message):
        build()


def test_rate_derivs_are_aligned_with_the_channels_once_built():
    nu = AtomicJumpKernel(jumps=_UNIT_UP + (((-1.0,), 0.5),),
                          rate_derivs=(0.25,))
    assert nu.rate_derivs == (0.25, None)
    assert np.array_equal(nu.rate_derivs_at(np.zeros((3, 1))),
                          [[0.25, 0.0]] * 3)
