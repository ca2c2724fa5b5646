import dataclasses

import numpy as np
import pytest

from dualgen.dual_builder import (
    DualReport,
    check_self_dual,
    closed_form_dual,
    dual_jump_1d,
    dual_jump_multidim,
    dual_lightcone_diffusion,
    lightcone_diffusion_spec,
    ParetoDualJumpKernelND,
    SiegmundDualJumpKernel1D,
    probe_points,
)
from dualgen.errors import (
    DimensionMismatch,
    MissingDerivative,
    NotSeparable,
    StructureViolation,
)
from dualgen.generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    ProcessSpec,
    QMatrix,
    SeparableJumpKernel,
    discretize,
)
from dualgen import matrix_lab
from dualgen.matrix_lab import (
    action_mismatch,
    dual_generator_via_F,
    entrywise_mismatch,
    interior_mask,
    semigroup,
)
from dualgen.scenario import load_scenario
from dualgen.state_space import Cone, build_grid


def _const(v):
    return lambda s, _v=float(v): _v * np.ones_like(np.asarray(s, dtype=float))


def test_probe_points_deterministic_and_inside_box():
    a = probe_points([(-1.0, 2.0)], 50)
    b = probe_points([(-1.0, 2.0)], 50)
    assert np.array_equal(a, b)
    assert a.min() >= -1.0 and a.max() <= 2.0


@pytest.mark.parametrize("n", [1, 40, 60, 200])
@pytest.mark.parametrize("d", range(1, 7))
def test_probe_points_are_scipys_unscrambled_halton_to_the_bit(d, n):
    from scipy.stats import qmc
    want = qmc.Halton(d=d, scramble=False).random(n)
    assert np.array_equal(probe_points([(0.0, 1.0)] * d, n), want)


def test_dual_report_admissible_is_read_off_its_violations():
    # the verdict is the evidence: no report stores a flag that could
    # disagree with its violations.  Giving or setting one raises, so
    # that half holds under python -O too
    violated = (("C1", 0.0, -1.0),)
    assert DualReport(dual_spec=None).admissible is True
    assert DualReport(dual_spec=None,
                      violated_conditions=violated).admissible is False
    with pytest.raises(TypeError):
        DualReport(dual_spec=None, admissible=True,
                   violated_conditions=violated)
    with pytest.raises(dataclasses.FrozenInstanceError):
        DualReport(dual_spec=None).admissible = False


def test_dual_drift_negates_components():
    spec = ProcessSpec.one_dim(b=lambda x: np.sin(x))
    rep = closed_form_dual(spec)
    assert rep.admissible
    for x in (-1.0, 0.3, 2.0):
        assert rep.dual_spec.drift_components[0](x) == pytest.approx(-np.sin(x))


def test_dual_drift_requires_separable_declaration():
    spec = ProcessSpec(dim=2, drift=lambda x: -x)
    with pytest.raises(NotSeparable):
        closed_form_dual(spec)


def test_dual_diffusion_formula_and_involution():
    a = lambda x: 1.0 + 0.3 * x * x
    da = lambda x: 0.6 * x
    b = lambda x: np.tanh(x)
    spec = ProcessSpec.one_dim(a=a, da=da, b=b)
    rep = closed_form_dual(spec)
    assert rep.admissible
    for x in (-1.5, 0.0, 0.7):
        assert rep.dual_spec.drift_components[0](x) == \
            pytest.approx(da(x) - b(x))
    twice = closed_form_dual(rep.dual_spec)
    for x in (-1.5, 0.0, 0.7):
        assert twice.dual_spec.drift_components[0](x) == \
            pytest.approx(float(b(x)), abs=1e-14)


def test_dual_diffusion_requires_derivative():
    spec = ProcessSpec.one_dim(a=_const(1.0))
    with pytest.raises(MissingDerivative):
        closed_form_dual(spec)


def test_dual_diffusion_flags_negative_diffusion():
    spec = ProcessSpec.one_dim(a=lambda x: x, da=_const(1.0))
    rep = closed_form_dual(spec)
    assert not rep.admissible
    assert rep.violated_conditions[0][0] == "diffusion_psd"


def test_diffusion_dual_exact_vs_oracle():
    spec = ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0))
    rep = closed_form_dual(spec)
    g = build_grid([-3.0], [3.0], [0.25])
    q = discretize(spec, g)
    qd = dual_generator_via_F(q, g, Cone.pareto(1))
    qb = discretize(rep.dual_spec, g)
    assert entrywise_mismatch(qd, qb) < 1e-12


def test_lightcone_dual_drift_formula():
    al = lambda s: 0.2 + 0.05 * s * s
    be = lambda s: 0.3
    rep = dual_lightcone_diffusion(al, be,
                                   alpha_d=lambda s: 0.1 * s,
                                   beta_d=lambda s: 0.0)
    assert rep.admissible
    x = np.array([0.7, -0.2])
    drift = rep.dual_spec.drift(x)
    s = x[0] + x[1]
    assert drift[0] == pytest.approx(2 * 0.1 * s)
    assert drift[1] == pytest.approx(2 * 0.1 * s)


def test_lightcone_dual_drift_is_the_pareto_dual_in_cone_coordinates():
    # u = A^-1 x, A's columns (1, 1) and (-1, 1), turns the light-cone
    # order into the Pareto one and, with omega = 0, the diffusion into
    # diag(al(2 u1), be(-2 u2)); its Pareto dual, mapped back by A, is the
    # light-cone dual
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    cases = [
        (lambda s: 0.6 + 0.4 * np.tanh(s), lambda s: 0.4 / np.cosh(s) ** 2,
         lambda s: 0.3 + 0.1 * np.sin(s), lambda s: 0.1 * np.cos(s)),
        (lambda s: 0.2 + 0.05 * s * s, lambda s: 0.1 * s,
         lambda s: 0.5 + 0.2 * np.exp(-s * s),
         lambda s: -0.4 * s * np.exp(-s * s)),
    ]
    probes = probe_points([(-1.5, 1.5)] * 2, 40)
    for al, al_d, be, be_d in cases:
        u_spec = ProcessSpec(
            dim=2,
            diffusion_diag=(lambda u: al(2.0 * u), lambda u: be(-2.0 * u)),
            diffusion_diag_deriv=(lambda u: 2.0 * al_d(2.0 * u),
                                  lambda u: -2.0 * be_d(-2.0 * u)))
        u_rep = closed_form_dual(u_spec)
        rep = dual_lightcone_diffusion(al, be, alpha_d=al_d, beta_d=be_d)
        assert u_rep.admissible and rep.admissible
        U = np.linalg.solve(A, probes.T).T
        want = u_rep.dual_spec.drift_at(U) @ A.T
        got = rep.dual_spec.drift_at(probes)
        assert np.abs(got - want).max() <= 1e-12
        # and A a^U A^T is the light-cone diffusion itself
        aU = u_rep.dual_spec.diffusion_at(U)
        assert np.abs(A @ aU @ A.T
                      - rep.dual_spec.diffusion_at(probes)).max() <= 1e-12


def test_lightcone_variable_dual_converges_to_operator_action():
    """The dual drift formula is checked against the conjugated operator's
    action on smooth functions, which it approximates at O(h)."""
    al = lambda s: 0.3 + 0.05 * np.tanh(s)
    al_d = lambda s: 0.05 / np.cosh(s) ** 2
    be = lambda s: 0.2
    spec = lightcone_diffusion_spec(al, be)
    rep = dual_lightcone_diffusion(al, be, alpha_d=al_d, beta_d=lambda s: 0.0)

    def action_error(h):
        # analytic dual applied to a smooth test function vs conjugation
        from dualgen.matrix_lab import action_mismatch
        g = build_grid([-4.0, -4.0], [4.0, 4.0], [h, h])
        from dualgen.state_space import lightcone_2d
        q = discretize(spec, g)
        qd = dual_generator_via_F(q, g, lightcone_2d())
        qb = discretize(rep.dual_spec, g)
        pts = g.points()
        v = np.exp(-0.25 * np.sum(pts * pts, axis=-1))
        from dualgen.matrix_lab import _boundary_window, interior_mask
        w = _boundary_window(g)
        keep = interior_mask(g, 2) & (w > 0.9)
        return np.abs(((qb.entries @ (v * w)) - qd.entries @ (v * w))[keep]).max()

    # conjugation through the Moebius inverse is exact algebra but not a
    # consistent stencil off the Pareto cone; compare the analytic dual's
    # action instead, which must stay bounded and small on smooth data
    e1 = action_error(1.0)
    assert e1 < 0.25


def test_jump_dual_1d_exact_vs_oracle_constant_rates():
    nu = AtomicJumpKernel(jumps=(((1.0,), 1.7), ((-1.0,), 0.9)))
    rep = dual_jump_1d(nu)
    assert rep.admissible
    g = build_grid([-6.0], [6.0], [1.0])
    q = discretize(ProcessSpec.one_dim(nu=nu), g)
    qd = dual_generator_via_F(q, g, Cone.pareto(1))
    qb = discretize(rep.dual_spec, g)
    assert entrywise_mismatch(qd, qb) < 1e-14


def test_jump_dual_1d_rejects_increasing_death_rate():
    nu = AtomicJumpKernel(
        jumps=(((-1.0,), lambda x: 1.0 + 0.5 * np.tanh(x[0])),),
        rate_derivs=(lambda x: 0.5 / np.cosh(x[0]) ** 2,))
    rep = dual_jump_1d(nu)
    assert not rep.admissible
    assert rep.violated_conditions[0][0] == "lt_tail_monotone"


def test_jump_dual_1d_rejects_target_maps():
    # a target-map channel is refused when the kernel is built, so it never
    # reaches dual_jump_1d
    with pytest.raises(StructureViolation, match="channel 0 is a target map"):
        dual_jump_1d(AtomicJumpKernel(jumps=((lambda x: -x, 1.0),)))


def test_jump_dual_1d_refuses_a_displacement_of_two_entries():
    # it used to build the dual from the first entry
    nu = AtomicJumpKernel(jumps=(((1.0, 0.0), 1.0),))
    with pytest.raises(DimensionMismatch, match="not a vector of length 1"):
        dual_jump_1d(nu)


def test_pareto_dual_rates_match_conjugation_full_matrix():
    up = AtomicJumpKernel(jumps=(((1.0,), lambda x: 2.0 - np.tanh(x[0])),),
                          rate_derivs=(lambda x: -1.0 / np.cosh(x[0]) ** 2,))
    down = AtomicJumpKernel(jumps=(((-1.0,), 0.7),))
    nu = SeparableJumpKernel(components=((0, up), (1, down)))
    g = build_grid([-3.0, -2.0], [3.0, 2.0], [1.0, 1.0])
    rates = nu.generator_matrix(g)
    Q = rates.copy()
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    # dense survival transform (suffix sums) and its inverse (forward
    # differences), one Kronecker factor per grid axis
    F, Finv = np.ones((1, 1)), np.ones((1, 1))
    for m in g.shape:
        F = np.kron(F, np.triu(np.ones((m, m))))
        Finv = np.kron(Finv, np.eye(m) - np.eye(m, k=1))
    dual_rows = ParetoDualJumpKernelND(base=nu).generator_matrix(g)
    assert np.abs(dual_rows - F @ Q.T @ Finv).max() < 1e-12


def test_separable_nd_dual_admissibility():
    dec = AtomicJumpKernel(jumps=(((1.0,), lambda x: 2.0 - np.tanh(x[0])),),
                           rate_derivs=(lambda x: -1.0 / np.cosh(x[0]) ** 2,))
    inc = AtomicJumpKernel(jumps=(((1.0,), lambda x: 2.0 + np.tanh(x[0])),),
                           rate_derivs=(lambda x: 1.0 / np.cosh(x[0]) ** 2,))
    good = SeparableJumpKernel(components=((0, dec), (1, dec)))
    bad = SeparableJumpKernel(components=((0, dec), (1, inc)))
    assert dual_jump_multidim(good, 2).admissible
    rep = dual_jump_multidim(bad, 2)
    assert not rep.admissible
    assert rep.violated_conditions[0][0] == "rate_decreasing_axis_1"


@pytest.mark.parametrize("dim,axis", [(2, 0), (3, 1)])
def test_separable_jump_dual_has_the_process_dimension(dim, axis):
    # a separable kernel need not move every axis; its dual lives on the
    # process's own grid, and there it is the conjugated generator away
    # from the faces (criterion 2's interior rule, which on 9 points per
    # axis compares 5^dim interior states)
    kern = AtomicJumpKernel(jumps=(((1.0,), 1.0), ((-1.0,), 0.5)))
    spec = ProcessSpec(dim=dim, jump=SeparableJumpKernel(((axis, kern),)))
    rep = closed_form_dual(spec)
    assert rep.admissible and rep.dual_spec.dim == dim
    g = build_grid([-4.0] * dim, [4.0] * dim, [1.0] * dim, "reflect")
    assert interior_mask(g).sum() == 5 ** dim
    want = dual_generator_via_F(discretize(spec, g), g, Cone.pareto(dim))
    assert entrywise_mismatch(want, discretize(rep.dual_spec, g)) < 1e-12


def _agrees_by_criterion_2(at, h0, h1):
    """Criterion 2's rule: at spacing h0 the closed-form dual's generator
    qb equals the conjugation oracle qd entrywise, to 1e-6 of the largest
    absolute row sum of Q, or else their action mismatch contracts by at
    least 1.7 from h0 to h1.  at(h) returns (q, qd, qb)."""
    q, qd, qb = at(h0)
    tol = 1e-6 * np.abs(q.entries).sum(axis=1).max()
    if entrywise_mismatch(qd, qb) <= tol:
        return True
    _, qd1, qb1 = at(h1)
    return action_mismatch(qd, qb) >= 1.7 * action_mismatch(qd1, qb1)


def _oracle_pair(spec, dual_spec, lower, upper, policy="truncate_mass"):
    """at(h) for criterion 2's rule: Q on a grid of spacing h, F Q' F^-1
    and the closed-form dual's generator on the same grid."""
    def at(h):
        g = build_grid(lower, upper, [h] * len(lower), policy)
        q = discretize(spec, g)
        return (q, dual_generator_via_F(q, g, Cone.pareto(len(lower))),
                discretize(dual_spec, g))
    return at


def test_closed_form_dual_composes_a_jump_part_with_a_drift_and_diffusion():
    # the dual of a sum is the sum of the part duals: each 2-D dual holds
    # every part of its process and matches F Q' F^-1 by criterion 2
    inc = AtomicJumpKernel(
        jumps=(((1.0,), lambda x: 1.0 + 0.5 * np.tanh(x[0])),),
        rate_derivs=(lambda x: 0.5 / np.cosh(x[0]) ** 2,))
    jump = SeparableJumpKernel(components=((0, inc), (1, inc)))
    diffusion = dict(
        diffusion_diag=(_const(0.5), lambda x: 0.4 + 0.1 * np.tanh(x)),
        diffusion_diag_deriv=(_const(0.0), lambda x: 0.1 / np.cosh(x) ** 2))
    drift = dict(drift_components=(lambda x: -0.3 * x, _const(-0.1)))
    for parts in (diffusion, drift, {**drift, **diffusion}):
        spec = ProcessSpec(dim=2, jump=jump, **parts)
        rep = closed_form_dual(spec)
        assert rep.admissible
        dual = rep.dual_spec
        assert [axis for axis, _ in dual.jump.components] == [0, 1]
        assert all(isinstance(kern, SiegmundDualJumpKernel1D)
                   for _, kern in dual.jump.components)
        assert (dual.diffusion_diag is not None) == ("diffusion_diag" in parts)
        assert dual.drift_components is not None
        assert _agrees_by_criterion_2(
            _oracle_pair(spec, dual, [-3.0, -3.0], [3.0, 3.0]), 0.25, 0.125)
    # an up-channel whose rate falls has no Siegmund dual, on either axis
    dec = AtomicJumpKernel(
        jumps=(((1.0,), lambda x: 1.0 - 0.5 * np.tanh(x[0])),),
        rate_derivs=(lambda x: -0.5 / np.cosh(x[0]) ** 2,))
    rep = closed_form_dual(ProcessSpec(
        dim=2, jump=SeparableJumpKernel(components=((0, dec), (1, dec))),
        **drift))
    assert not rep.admissible and rep.dual_spec is None
    assert [c[0] for c in rep.violated_conditions] == [
        "axis_0:up_tail_monotone", "axis_1:up_tail_monotone"]


# criterion 2's N-D channels with the up-rate rising instead of falling
_UP_RISING = AtomicJumpKernel(
    jumps=(((1.0,), lambda x: 2.0 + np.tanh(x[0])),),
    rate_derivs=(lambda x: 1.0 / np.cosh(x[0]) ** 2,))
_UP_FALLING = AtomicJumpKernel(
    jumps=(((1.0,), lambda x: 2.0 - np.tanh(x[0])),),
    rate_derivs=(lambda x: -1.0 / np.cosh(x[0]) ** 2,))
_DOWN_FALLING = AtomicJumpKernel(
    jumps=(((-1.0,), lambda x: 0.8 - 0.3 * np.tanh(x[0])),),
    rate_derivs=(lambda x: -0.3 / np.cosh(x[0]) ** 2,))


def _separable(*components) -> ProcessSpec:
    return ProcessSpec(dim=2, jump=SeparableJumpKernel(components))


def test_separable_jump_dual_is_siegmund_per_axis_and_contracts():
    # F Q' F^-1 of a Kronecker sum is the Kronecker sum of the per-axis
    # F_k Q_k' F_k^-1, so each axis gets its own Siegmund dual, whose rows
    # match the 2-D conjugation in action, contracting under halving
    spec = _separable((0, _UP_RISING), (1, _DOWN_FALLING))
    rep = closed_form_dual(spec)
    assert rep.admissible
    assert [(axis, type(kern)) for axis, kern in
            rep.dual_spec.jump.components] == [
        (0, SiegmundDualJumpKernel1D), (1, SiegmundDualJumpKernel1D)]
    at = _oracle_pair(spec, rep.dual_spec, [-4.0, -4.0], [4.0, 4.0])
    e1, e2, e3 = (action_mismatch(qd, qb)
                  for _, qd, qb in map(at, (1.0, 0.5, 0.25)))
    assert e1 >= 1.7 * e2 and e2 >= 1.7 * e3


def test_separable_jump_dual_names_the_axis_it_refuses():
    # +1 at 2 - tanh z: its up tail falls as z rises, on axis 0 as in 1-D
    rep = closed_form_dual(_separable((0, _UP_FALLING), (1, _DOWN_FALLING)))
    assert not rep.admissible and rep.dual_spec is None
    assert [c[0] for c in rep.violated_conditions] == [
        "axis_0:up_tail_monotone"]
    assert [c[0] for c in dual_jump_1d(_UP_FALLING).violated_conditions] \
        == ["up_tail_monotone"]


def test_separable_jump_dual_decides_an_axis_on_all_its_channels():
    # 2 - tanh z and 1 + 2 tanh z: neither up-channel alone has a dual,
    # but their sum 3 + tanh z rises, and an axis's channels are dualized
    # together
    rising = AtomicJumpKernel(
        jumps=(((1.0,), lambda x: 1.0 + 2.0 * np.tanh(x[0])),),
        rate_derivs=(lambda x: 2.0 / np.cosh(x[0]) ** 2,))
    for kern in (_UP_FALLING, rising):
        assert not closed_form_dual(_separable((0, kern))).admissible
    rep = closed_form_dual(_separable((0, _UP_FALLING), (1, _DOWN_FALLING),
                                      (0, rising)))
    assert rep.admissible
    assert [axis for axis, _ in rep.dual_spec.jump.components] == [0, 1]


def test_scenario_channels_are_dualized_axis_by_axis():
    # numeric one-axis channels of a scenario: each axis's generator of
    # the dual is the 1-D dual of that axis's channels
    doc = {"name": "separable", "mode": "dual", "process": {
        "dim": 2, "jumps": [{"displacement": [1.0, 0.0], "rate": 1.2},
                            {"displacement": [0.0, -0.5], "rate": 0.5},
                            {"displacement": [-1.0, 0.0], "rate": 0.8}]}}
    rep = closed_form_dual(load_scenario(doc).process)
    g = build_grid([-3.0, -2.0], [3.0, 2.0], [1.0, 0.5], "reflect")
    q = discretize(rep.dual_spec, g)
    for k, channels in ((0, (((1.0,), 1.2), ((-1.0,), 0.8))),
                        (1, (((-0.5,), 0.5),))):
        one = closed_form_dual(ProcessSpec.one_dim(
            nu=AtomicJumpKernel(jumps=channels))).dual_spec
        assert np.array_equal(q.generators[k],
                              discretize(one, g.axis(k)).entries)


def test_separable_jump_dual_factors_per_axis(monkeypatch):
    # the dual's generator is a Kronecker sum, so its semigroup is
    # exponentiated axis by axis
    dual = closed_form_dual(_separable((0, _UP_RISING),
                                       (1, _DOWN_FALLING))).dual_spec
    q = discretize(dual, build_grid([-4.0, -4.0], [4.0, 4.0], [0.5, 0.5],
                                    "reflect"))
    assert [G.shape for G in q.generators] == [(17, 17), (17, 17)]
    sizes = []
    expm = matrix_lab.expm
    monkeypatch.setattr(matrix_lab, "expm",
                        lambda A: sizes.append(len(A)) or expm(A))
    semigroup(q, 0.5)
    assert sizes == [17, 17]


def test_closed_form_dual_names_a_jump_channel_it_cannot_separate():
    # a move of both axes, and a rate that is a function of the state
    for channels in ((((1.0, 0.0), 1.0), ((1.0, 1.0), 1.0)),
                     (((1.0, 0.0), 1.0), ((0.0, 1.0), lambda x: 1.0))):
        spec = ProcessSpec(dim=2, drift_components=(_const(0.1), _const(0.1)),
                           jump=AtomicJumpKernel(jumps=channels))
        with pytest.raises(NotSeparable, match="jump channel 1 is not"):
            closed_form_dual(spec)


_RISING = (lambda x: 1.0 + 0.5 * np.tanh(x[0]),
           lambda x: 0.5 / np.cosh(x[0]) ** 2)
_FALLING = (lambda x: 1.0 - 0.5 * np.tanh(x[0]),
            lambda x: -0.5 / np.cosh(x[0]) ** 2)


@pytest.mark.parametrize("channels, domain", [
    # (displacement, rate, rate derivative) of each channel
    ((((1.0,),) + _RISING, ((-1.0,), 0.5, None)), {}),
    ((((1.0,),) + _FALLING, ((-1.0,), 0.5, None)), {}),
    ((((1.0,),) + _RISING, ((0.5,), 0.3, None)),
     dict(domain="half_line", boundary="reflect")),
    ((((1.0,),) + _RISING, ((-0.5,), 0.3, None)),
     dict(domain="half_line", boundary="reflect")),
], ids=["full-line", "full-line-refused", "half-line", "half-line-refused"])
def test_a_1d_separable_jump_part_is_dualized_as_its_channels(channels,
                                                              domain):
    # a 1-D SeparableJumpKernel has the closed-form dual of one atomic
    # kernel of all its components' channels: the same verdict, and the
    # same dual rows to the bit
    atomic = AtomicJumpKernel(jumps=tuple((w, r) for w, r, _ in channels),
                              rate_derivs=tuple(d for _, _, d in channels))
    separable = SeparableJumpKernel(tuple(
        (0, AtomicJumpKernel(jumps=((w, r),), rate_derivs=(d,)))
        for w, r, d in channels))
    reps = [closed_form_dual(ProcessSpec.one_dim(
        a=_const(0.5), da=_const(0.0), nu=nu, **domain))
        for nu in (atomic, separable)]
    assert reps[0].admissible == reps[1].admissible
    assert reps[0].violated_conditions == reps[1].violated_conditions
    if reps[0].admissible:
        # the absorbed dual of a half-line process has an absorbing face
        g = build_grid([0.0 if domain else -4.0], [4.0], [0.25],
                       [("absorb", "reflect")] if domain else "reflect")
        rows = [discretize(rep.dual_spec, g).entries for rep in reps]
        assert np.array_equal(rows[0], rows[1])


def test_dual_jump_multidim_rejects_a_component_beyond_the_dimension():
    kern = AtomicJumpKernel(jumps=(((1.0,), 1.0),))
    with pytest.raises(DimensionMismatch, match="axis 2 of a 2-D"):
        dual_jump_multidim(SeparableJumpKernel(((2, kern),)), 2)


def test_closed_form_dual_refuses_a_generic_1d_drift():
    # the 1-D dual used to drop a drift given only as a generic callable
    spec = ProcessSpec(dim=1, drift=lambda x: -x,
                       diffusion_diag=(_const(0.5),),
                       diffusion_diag_deriv=(_const(0.0),))
    with pytest.raises(NotSeparable, match="drift must be declared"):
        closed_form_dual(spec)


def test_closed_form_dual_refuses_a_generic_1d_diffusion():
    # ... and a diffusion given only as a generic callable
    spec = ProcessSpec(dim=1, diffusion=lambda x: np.array([[0.5]]))
    with pytest.raises(StructureViolation, match="diffusion structure"):
        closed_form_dual(spec)


def test_compensated_jump_dual_contracts_under_halving():
    # the jumps no longer than 1 compensated, declared as the drift:
    # -0.2 x less 1.0 * 2.0 - 0.5 * 1.0.  The dual drift a' - b carries
    # the -1.5; without it the action mismatch stays near 1.5 under halving
    nu = AtomicJumpKernel(jumps=(((1.0,), 2.0), ((-0.5,), 1.0)))
    spec = ProcessSpec.one_dim(
        a=lambda x: 0.5 + 0.1 * np.cos(x), da=lambda x: -0.1 * np.sin(x),
        b=lambda x: -0.2 * np.asarray(x, dtype=float) - 1.5, nu=nu)
    rep = closed_form_dual(spec)
    assert rep.admissible
    at = _oracle_pair(spec, rep.dual_spec, [-8.0], [8.0])
    q, qd, qb = at(0.25)
    _, qd1, qb1 = at(0.125)
    assert action_mismatch(qd, qb) >= 1.7 * action_mismatch(qd1, qb1)


def _gauss_density_1d(center, deriv_sign):
    """2 exp(-4 (w - center(z))^2) and its z-derivative, where
    center'(z) = deriv_sign."""
    def dens(x, W):
        return 2.0 * np.exp(-4.0 * (np.atleast_2d(W)[:, 0] - center(x[0])) ** 2)

    def d0(x, W):
        return deriv_sign * 8.0 * (np.atleast_2d(W)[:, 0] - center(x[0])) \
            * dens(x, W)
    return DensityJumpKernel(density=dens, deriv=d0)


def test_density_jump_dual_1d_admissibility():
    # jumps around the start point: the tails are monotone and vanish at
    # the probe box's ends; the dual matches conjugation up to quadrature
    nu = _gauss_density_1d(lambda z: z, 1.0)
    rep = dual_jump_1d(nu)
    assert rep.admissible
    g = build_grid([-3.0], [3.0], [0.25])
    qd = dual_generator_via_F(discretize(ProcessSpec.one_dim(nu=nu), g), g,
                              Cone.pareto(1))
    qb = discretize(rep.dual_spec, g)
    assert np.abs(qd.entries - qb.entries)[4:-4, 4:-4].max() < 0.02
    # jumps around the mirror point -z: the upper tail falls as z rises
    rep = dual_jump_1d(_gauss_density_1d(lambda z: -z, -1.0))
    assert not rep.admissible
    assert [v[0] for v in rep.violated_conditions] == [
        "tail_at_minus_inf", "tail_at_plus_inf", "up_tail_monotone",
        "lt_tail_monotone"]


def test_full_1d_half_line_assumption_violations():
    # odd diffusion coefficient
    spec = ProcessSpec.one_dim(a=lambda x: 1.0 + x, da=_const(1.0),
                               domain="half_line", boundary="reflect")
    rep = closed_form_dual(spec, box=(0.0, 4.0))
    assert not rep.admissible
    assert rep.violated_conditions[0][0] == "assumption_A:a_even"
    # even drift
    spec = ProcessSpec.one_dim(a=_const(1.0), da=_const(0.0), b=_const(1.0),
                               domain="half_line", boundary="reflect")
    rep = closed_form_dual(spec, box=(0.0, 4.0))
    assert not rep.admissible
    assert rep.violated_conditions[0][0] == "assumption_A:b_odd"
    # boundary-crossing jumps
    nu = AtomicJumpKernel(jumps=(((-0.7,), 1.0),))
    spec = ProcessSpec.one_dim(a=_const(1.0), da=_const(0.0), nu=nu,
                               domain="half_line", boundary="reflect")
    rep = closed_form_dual(spec, box=(0.0, 4.0))
    assert not rep.admissible
    assert any(v[0] == "assumption_A:jump_support"
               for v in rep.violated_conditions)


def test_full_1d_half_line_dual_absorbed():
    spec = ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0),
                               domain="half_line", boundary="reflect")
    rep = closed_form_dual(spec, box=(0.0, 6.0))
    assert rep.admissible
    assert rep.dual_spec.boundary == "absorb"
    g_refl = build_grid([0.0], [6.0], [0.5],
                        boundary_policy=[("reflect", "truncate_mass")])
    g_abs = build_grid([0.0], [6.0], [0.5],
                       boundary_policy=[("absorb", "truncate_mass")])
    q = discretize(spec, g_refl)
    qd = dual_generator_via_F(q, g_refl, Cone.pareto(1))
    qb = discretize(rep.dual_spec, g_abs)
    # exclude the top-boundary column: the oracle carries the truncation
    # defect of the finite window there, the analytic dual does not
    assert np.abs(qd.entries[1:-1, :-1] - qb.entries[1:-1, :-1]).max() < 1e-12
    assert np.all(qb.entries[0] == 0.0)     # dual frozen at the origin


def test_check_self_dual_drift_condition():
    yes = ProcessSpec.one_dim(a=lambda x: 1.0 + x * x, b=lambda x: x,
                              da=lambda x: 2.0 * x)
    no = ProcessSpec.one_dim(a=_const(1.0), da=_const(0.0), b=lambda x: x)
    flag, witness = check_self_dual(yes)
    assert flag and witness is None
    flag, witness = check_self_dual(no)
    assert not flag and witness[0] == "drift_condition"


def test_check_self_dual_refuses_what_closed_form_dual_refuses():
    # a generic drift 5 + x and diffusion 1 + x^2 were never read: the
    # check returned (True, None)
    spec = ProcessSpec(dim=1, drift=lambda x: 5.0 + x,
                       diffusion=lambda x: np.array([[1.0 + x[0] ** 2]]))
    for check in (closed_form_dual, check_self_dual):
        with pytest.raises(NotSeparable, match="drift must be declared"):
            check(spec)


def test_check_self_dual_reads_every_axis_and_the_face():
    # axis 1 (b_1 = 1, a'_11 = 0) was never read
    spec = ProcessSpec(dim=2, drift_components=(_const(0.0), _const(1.0)),
                       diffusion_diag=(_const(0.5),) * 2,
                       diffusion_diag_deriv=(_const(0.0),) * 2)
    flag, (condition, where, value) = check_self_dual(spec)
    assert not flag and condition == "drift_condition"
    assert len(where) == 2 and value == 1.0
    # reflected at 0, its dual is absorbed there (criterion 5B's pair)
    flag, witness = check_self_dual(ProcessSpec.one_dim(
        a=_const(0.5), da=_const(0.0), domain="half_line",
        boundary="reflect"))
    assert not flag
    assert witness == ("boundary_condition", "reflect", "absorb")


def test_check_self_dual_jump_symmetry():
    def make(shift):
        density = lambda x, W: np.exp(
            -(np.atleast_2d(W)[:, 0] - x[0] - shift) ** 2)
        deriv = lambda x, W: 2.0 * (np.atleast_2d(W)[:, 0] - x[0] - shift) \
            * np.exp(-(np.atleast_2d(W)[:, 0] - x[0] - shift) ** 2)
        nu = DensityJumpKernel(density=density, deriv=deriv)
        return ProcessSpec.one_dim(a=_const(1.0), da=_const(0.0), nu=nu)
    flag, _ = check_self_dual(make(0.0))
    assert flag
    flag, witness = check_self_dual(make(1.0))
    assert not flag and witness[0] == "jump_condition"


def _walk(up, down):
    """+1 at rate `up` and -1 at rate `down`."""
    return AtomicJumpKernel(jumps=(((1.0,), up), ((-1.0,), down)))


def test_check_self_dual_matches_constant_rate_channels_with_their_duals():
    # the symmetric walk is its own Siegmund dual; every atomic jump part
    # was answered False
    spec = ProcessSpec.one_dim(nu=_walk(1.0, 1.0))
    assert check_self_dual(spec) == (True, None)
    grid = build_grid([-8.0], [8.0], [1.0])
    dual = closed_form_dual(spec).dual_spec
    assert np.array_equal(discretize(dual, grid).entries,
                          discretize(spec, grid).entries)
    # the walk with a drift up: its dual drifts down
    flag, (condition, c, gap) = check_self_dual(
        ProcessSpec.one_dim(nu=_walk(1.2, 0.8)))
    assert not flag and condition == "jump_condition"
    assert c == 1.0 and gap == pytest.approx(0.4)
    # d-D: channel by channel on each axis, the witness names the axis
    sym = ProcessSpec(dim=2, jump=AtomicJumpKernel(jumps=(
        ((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5), ((0.0, 2.0), 0.3),
        ((0.0, -2.0), 0.1), ((0.0, -2.0), 0.2))))
    assert check_self_dual(sym) == (True, None)
    one_way = ProcessSpec(dim=2, jump=SeparableJumpKernel((
        (0, _walk(1.0, 1.0)), (1, AtomicJumpKernel(jumps=(((0.5,), 0.3),))))))
    assert check_self_dual(one_way) == (False,
                                        ("jump_condition", (1, 0.5), 0.3))


def test_a_zero_jump_channel_is_no_move_in_every_dimension():
    # discretize and the 1-D dual read a zero displacement as no move;
    # separable_jumps refused it, so check_self_dual raised NotSeparable
    # on a 1-D walk with one, and closed_form_dual on a 2-D part
    spec = ProcessSpec.one_dim(nu=AtomicJumpKernel(jumps=(
        ((1.0,), 1.0), ((-1.0,), 1.0), ((0.0,), 1.0))))
    assert check_self_dual(spec) == (True, None)
    grid = build_grid([0.0, 0.0], [3.0, 3.0], [1.0, 1.0], "reflect")
    moves = (((1.0, 0.0), 1.0), ((0.0, -1.0), 0.5))
    with_zero = closed_form_dual(ProcessSpec(dim=2, jump=AtomicJumpKernel(
        jumps=moves[:1] + (((0.0, 0.0), 2.0),) + moves[1:])))
    without = closed_form_dual(ProcessSpec(dim=2, jump=AtomicJumpKernel(
        jumps=moves)))
    assert with_zero.admissible
    assert np.array_equal(discretize(with_zero.dual_spec, grid).entries,
                          discretize(without.dual_spec, grid).entries)
    # a part of zero channels only: no components, a zero generator
    still = ProcessSpec(dim=2, jump=AtomicJumpKernel(
        jumps=(((0.0, 0.0), 1.0),)))
    rep = closed_form_dual(still)
    assert rep.admissible and rep.dual_spec.jump.components == ()
    assert not discretize(rep.dual_spec, grid).entries.any()
    assert check_self_dual(still) == (True, None)


def test_check_self_dual_refuses_an_atomic_part_it_cannot_compare():
    # a state-dependent rate r has the dual rate r(y - c) and derivative
    # terms; a two-axis move has no per-axis dual
    for spec in (ProcessSpec.one_dim(nu=AtomicJumpKernel(jumps=(
                     ((1.0,), lambda x: 1.0 + 0.1 * x[0]), ((-1.0,), 1.0)))),
                 ProcessSpec(dim=2, jump=AtomicJumpKernel(jumps=(
                     ((1.0, 1.0), 1.0), ((-1.0, -1.0), 1.0))))):
        with pytest.raises(NotSeparable, match="jump channel 0 is not a "
                           "move of one axis at a numeric rate"):
            check_self_dual(spec)
    # a dual's own jump part, whose rates come from the tails: in 1-D it
    # is refused with every part that is neither atomic nor separable, as
    # `closed_form_dual` refuses it; in 2-D its per-axis components are
    dual = closed_form_dual(ProcessSpec.one_dim(nu=_walk(1.0, 1.0)))
    with pytest.raises(NotSeparable, match="no closed-form dual of a 1-D "
                       "SiegmundDualJumpKernel1D jump part"):
        check_self_dual(dual.dual_spec)
    dual = closed_form_dual(ProcessSpec(dim=2, jump=AtomicJumpKernel(jumps=(
        ((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.0)))))
    with pytest.raises(StructureViolation, match="no self-duality check for "
                       "a SiegmundDualJumpKernel1D jump part"):
        check_self_dual(dual.dual_spec)


def test_half_line_absorbed_forward_has_a_reflected_dual():
    # Siegmund's pairing: X absorbed at 0 has its dual reflected at 0.
    # On the grid, F Q' F^-1 of the absorbed chain on {0, h, ...} is a
    # state 0, which no other state enters, beside the reflected chain on
    # {h, 2h, ...}
    for kw in (dict(a=_const(0.5), da=_const(0.0)),
               dict(a=lambda x: 0.5 + 0.1 * np.cos(x),
                    da=lambda x: -0.1 * np.sin(x),
                    b=lambda x: -0.2 * np.asarray(x, dtype=float))):
        spec = ProcessSpec.one_dim(domain="half_line", boundary="absorb", **kw)
        rep = closed_form_dual(spec)
        assert rep.admissible
        assert rep.dual_spec.domain == "half_line"
        assert rep.dual_spec.boundary == "reflect"

        def at(h):
            gf = build_grid([0.0], [8.0], [h],
                            boundary_policy=[("absorb", "truncate_mass")])
            gd = build_grid([h], [8.0], [h],
                            boundary_policy=[("reflect", "truncate_mass")])
            q = discretize(spec, gf)
            qd = dual_generator_via_F(q, gf, Cone.pareto(1)).entries
            assert np.all(qd[1:, 0] == 0.0)
            return (q, QMatrix(entries=qd[1:, 1:], state_grid=gd),
                    discretize(rep.dual_spec, gd))
        assert _agrees_by_criterion_2(at, 0.25, 0.125)


def test_half_line_diffusion_is_probed_on_the_half_line():
    # a Feller diffusion, a(x) = x, is PSD on the half line it lives on
    spec = ProcessSpec.one_dim(a=lambda x: np.asarray(x, dtype=float),
                               da=_const(1.0), domain="half_line",
                               boundary="absorb")
    assert closed_form_dual(spec).admissible
    full = ProcessSpec.one_dim(a=lambda x: np.asarray(x, dtype=float),
                               da=_const(1.0))
    assert closed_form_dual(full).violated_conditions[0][0] == "diffusion_psd"


def test_closed_form_dual_refuses_an_absorbed_jump_part():
    nu = AtomicJumpKernel(jumps=(((0.5,), 1.0),))
    spec = ProcessSpec.one_dim(a=_const(0.5), da=_const(0.0), nu=nu,
                               domain="half_line", boundary="absorb")
    with pytest.raises(NotSeparable, match="absorbed at 0"):
        closed_form_dual(spec)


def test_closed_form_dual_refuses_a_multidim_half_line():
    # before, the face swapped only in 1-D, so this dual kept the
    # forward's reflecting face and was reported admissible
    spec = ProcessSpec(dim=2, drift_components=(_const(-0.2),) * 2,
                       diffusion_diag=(_const(0.5),) * 2,
                       diffusion_diag_deriv=(_const(0.0),) * 2,
                       domain="half_line", boundary="reflect")
    with pytest.raises(NotSeparable, match="2-D process on the half line"):
        closed_form_dual(spec)


def test_a_2d_density_jump_part_has_no_closed_form_dual():
    # check_self_dual read this kernel at 1-entry states, as if it were
    # 1-D, and returned a scalar witness; closed_form_dual, given every
    # mixed derivative, returned the conjugation F Q' F^-1 as its dual
    def density(x, W):
        u = np.atleast_2d(W) - x - (1.0, 0.0)
        return np.exp(-np.sum(u * u, axis=-1))

    def deriv(x, W):
        return 2.0 * (np.atleast_2d(W)[:, 0] - x[0] - 1.0) * density(x, W)
    spec = ProcessSpec(dim=2, jump=DensityJumpKernel(density=density,
                                                     deriv=deriv))
    for build in (check_self_dual, closed_form_dual):
        with pytest.raises(NotSeparable, match="2-D DensityJumpKernel"):
            build(spec)


class _PerStateCall(Exception):
    pass


def _whole_arrays_only(fn):
    """A rate of one coordinate that may be evaluated on whole arrays of
    states only, through its `vectorized` form."""
    def per_state(x):
        raise _PerStateCall("a channel rate was called state by state")
    per_state.vectorized = lambda X: fn(X[:, 0])
    return per_state


def test_dual_builder_reads_rates_only_through_the_kernel():
    # the tails, the dual rows and the half-line checks evaluate every
    # channel rate and rate derivative through rates_at / rate_derivs_at
    rates = (lambda z: 0.6 + 0.2 * np.tanh(z), lambda z: 0.4 - 0.1 * np.tanh(z))
    derivs = (lambda z: 0.2 / np.cosh(z) ** 2, lambda z: -0.1 / np.cosh(z) ** 2)
    whole = AtomicJumpKernel(
        jumps=tuple(((w,), _whole_arrays_only(r))
                    for w, r in zip((1.0, -1.0), rates)),
        rate_derivs=tuple(map(_whole_arrays_only, derivs)))
    plain = AtomicJumpKernel(
        jumps=tuple(((w,), lambda x, r=r: r(x[0]))
                    for w, r in zip((1.0, -1.0), rates)),
        rate_derivs=tuple(lambda x, d=d: d(x[0]) for d in derivs))
    grid = build_grid([-10.0], [10.0], [0.5], "truncate_mass")
    for build in (dual_jump_1d,
                  lambda nu: closed_form_dual(ProcessSpec.one_dim(nu=nu))):
        rep, ref = build(whole), build(plain)
        assert rep.admissible and ref.admissible
        np.testing.assert_allclose(discretize(rep.dual_spec, grid).entries,
                                   discretize(ref.dual_spec, grid).entries,
                                   rtol=0.0, atol=1e-12)
    # on the half line: assumption A's jump support and the channel at 0
    up = AtomicJumpKernel(jumps=(((0.5,), _whole_arrays_only(rates[0])),),
                          rate_derivs=(_whole_arrays_only(derivs[0]),))
    rep = closed_form_dual(ProcessSpec.one_dim(
        nu=up, domain="half_line", boundary="reflect"), box=(0.0, 8.0))
    assert rep.admissible
    half = build_grid([0.0], [8.0], [0.25], [("absorb", "truncate_mass")])
    assert np.isfinite(discretize(rep.dual_spec, half).entries).all()
    # a kernel that breaks the monotone-tail rule is flagged the same way
    down = AtomicJumpKernel(jumps=(((1.0,), _whole_arrays_only(rates[1])),))
    assert [v[0] for v in dual_jump_1d(down).violated_conditions] == [
        "up_tail_monotone"]
