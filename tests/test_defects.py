"""A catalogue of known defects, each caught by a named test.

Every entry patches the package back to a defect it once had, or to a
rule a plausible fix would bring in, and runs the test that must catch
it: the test passes on the package as it is
and fails with the defect in place, so the gate earns its keep (the
idea of mutation testing: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).
"""

from dataclasses import replace

import numpy as np
import pytest

import test_acceptance
import test_cli_reports
import test_dual_builder
import test_generator_core
import test_matrix_lab
import test_monte_carlo
from dualgen import dual_builder, generator_core, monte_carlo, state_space
from dualgen.errors import UnsupportedScheme


def _multidim_rule(nu, dim, box):
    """The d >= 2 separable jump dual as `dual_jump_multidim` builds it:
    admitted when every per-axis total rate falls (the reverse of
    Siegmund's rule), its rows the conjugation F Q' F^-1 itself."""
    return dual_builder.dual_jump_multidim(nu, dim)


_dual_drift = dual_builder._dual_drift


def _dual_drift_sign_flipped(da, b):
    """The dual drift b - a' in place of a' - b."""
    drift = _dual_drift(da, b)
    return None if drift is None else (lambda s: -drift(s))


def _fold_every_axis(x):
    """`reflect` folding every axis, while absorption tests axis 0 only."""
    np.abs(x, out=x)


def _kill_off_grid_jumps(kernel, grid):
    """`AtomicJumpKernel.generator_matrix` with a jump off a
    truncate_mass face killed, its rate taken from the diagonal, as a
    stencil move off the face is, in place of left out of its row."""
    pts = grid.points()
    R = np.zeros((len(pts), len(pts)))
    killed = np.zeros(len(pts))
    for w, r in kernel._channels(pts):
        generator_core._place(R, grid, pts + w, r)
        killed += np.where(generator_core.map_targets(grid, pts + w) < 0,
                           r, 0.0)
    return generator_core._generator_rows(R) - np.diag(killed)


_lightcone_spec = dual_builder.lightcone_diffusion_spec


def _lightcone_drift_doubled(alpha, beta, omega=None, drift=None):
    """The light-cone spec with its drift doubled, so that
    `dual_lightcone_diffusion`'s dual drift is 4(al' +- be'), twice the
    Pareto dual's in cone coordinates."""
    doubled = None if drift is None else (lambda x: 2.0 * drift(x))
    return _lightcone_spec(alpha, beta, omega, drift=doubled)


def _skip_face_check(spec, grid):
    """`discretize` running a half-line spec on whatever grid it gets."""


_fold = generator_core._fold


def _fold_reflect_once(grid, axis, k):
    """`_fold` with a reflect/reflect axis folded once about each face, as
    an axis with one reflect face is, in place of periodically: a target
    still off the axis after that is dropped."""
    if tuple(grid.boundary_policy[axis]) != ("reflect", "reflect"):
        return _fold(grid, axis, k)
    n = grid.shape[axis]
    k = np.where(k < 0, -k - 1, k)
    k = np.where(k >= n, 2 * n - 1 - k, k)
    return np.where((k < 0) | (k >= n), -1, k)


_one_step_exact = monte_carlo._one_step_exact


def _one_step_without_bridge_test(spec, cfg, b):
    """The one-step rule taking an absorbed path with or without the
    bridge test."""
    return _one_step_exact(spec, replace(cfg, bridge_correction=True), b)


def _one_step_blind_to_drift(spec, cfg, b):
    """The one-step rule reflecting a path whatever its axis-0 drift."""
    return _one_step_exact(spec, cfg, None)


def _taken_constant(coef):
    def fixed(s):
        return coef(s)
    fixed.variables = frozenset()
    return fixed


def _one_step_blind_to_variables(spec, cfg, b):
    """The one-step rule reading every per-axis coefficient as a
    constant, a varying one too."""
    def fixed(parts):
        return None if parts is None else tuple(map(_taken_constant, parts))
    return _one_step_exact(replace(
        spec, drift_components=fixed(spec.drift_components),
        diffusion_diag=fixed(spec.diffusion_diag)), cfg, b)


_bridge_hits = monte_carlo._bridge_hits


def _bridge_test_on_cfg_dt(dt, *rest):
    """The bridge test over a step of cfg.dt, the law test's 0.01, while
    the path takes one step of t_end."""
    return _bridge_hits(test_monte_carlo._KILLED_CFG.dt, *rest)


_positive_stable_sample = monte_carlo.positive_stable_sample


def _stable_amplitude_scaled(rng, alpha_half, size):
    """The stable sampler with its amplitude scaled by 1.1: sqrt(2A)
    scaled by 1.1^(1/alpha), as (1.1 a dt)^(1/alpha) would scale it."""
    return 1.1 ** (1.0 / alpha_half) * _positive_stable_sample(
        rng, alpha_half, size)


_axis_generators = generator_core._axis_generators


def _axis_generators_reversed(spec, grid):
    """`_axis_generators` with its generators in reversed axis order:
    the generator of axis d-1-k's coefficients handed over as axis k's,
    assembled on axis k's length, since a bare reversal of the tuple on
    axes of different lengths is refused by QMatrix's shape check."""
    if spec.drift_components is None or spec.diffusion_diag is None:
        return _axis_generators(spec, grid)
    return _axis_generators(replace(
        spec, drift_components=spec.drift_components[::-1],
        diffusion_diag=spec.diffusion_diag[::-1]), grid)


def _axis_generators_shifted(spec, grid):
    """`_axis_generators` with one rate of the second axis moved by
    1e-6 ||Q||, its diagonal entry moved with it, so the term is still a
    generator and its own semigroup check passes."""
    gens = [G.copy() for G in _axis_generators(spec, grid)]
    if len(gens) > 1:
        delta = 1e-6 * sum(np.abs(G).sum(axis=1).max() for G in gens)
        gens[1][2, 3] += delta
        gens[1][2, 2] -= delta
    return tuple(gens)


_check_scheme = monte_carlo._check_scheme


def _check_scheme_without_the_start_rate(spec, cfg, x0):
    """`_check_scheme` with its start-state rate check patched out: the
    thinning bound taken as 1e300 there, while the paths run at the bound
    they were given."""
    if cfg.rate_bound is not None:
        cfg = replace(cfg, rate_bound=1e300)
    return _check_scheme(spec, cfg, x0)


def _check_scheme_admitting_any_diffusion(spec, cfg, x0):
    """`_check_scheme` letting a generic or off-diagonal diffusion through
    to the step kernel, which simulates a diagonal one only."""
    try:
        _check_scheme(spec, cfg, x0)
    except UnsupportedScheme as exc:
        if "declared per axis" not in str(exc):
            raise


# (defect, (module, name, the defect's stand-in), (test module, test, args))
DEFECTS = [
    ("separable_dual_by_dual_jump_multidim",
     (dual_builder, "_separable_dual", _multidim_rule),
     (test_dual_builder,
      "test_separable_jump_dual_is_siegmund_per_axis_and_contracts", ())),
    ("separable_dual_by_dual_jump_multidim",
     (dual_builder, "_separable_dual", _multidim_rule),
     (test_dual_builder,
      "test_separable_jump_dual_names_the_axis_it_refuses", ())),
    ("dual_drift_sign_flipped",
     (dual_builder, "_dual_drift", _dual_drift_sign_flipped),
     (test_dual_builder, "test_dual_diffusion_formula_and_involution", ())),
    ("reflect_folds_every_axis",
     (monte_carlo, "_reflect", _fold_every_axis),
     (test_monte_carlo, "test_kernel_matches_plain_step_loop",
      ("reflect_2d",))),
    ("truncate_mass_jump_killed",
     (generator_core.AtomicJumpKernel, "generator_matrix",
      _kill_off_grid_jumps),
     (test_acceptance, "test_criterion_2_closed_form_vs_oracle", ())),
    ("lightcone_dual_drift_doubled",
     (dual_builder, "lightcone_diffusion_spec", _lightcone_drift_doubled),
     (test_dual_builder,
      "test_lightcone_dual_drift_is_the_pareto_dual_in_cone_coordinates",
      ())),
    ("every_cone_taken_for_the_orthant",
     (state_space.Cone, "is_orthant", property(lambda cone: True)),
     (test_cli_reports, "test_cli_exit_two_on_mc_with_the_light_cone", ())),
    # the absorbed spec's case: with the check gone it reports a pass
    ("half_line_face_ignored",
     (generator_core, "_check_half_line_face", _skip_face_check),
     (test_cli_reports,
      "test_cli_exit_two_on_a_grid_that_contradicts_the_half_line",
      (0.0, "absorb", "reflect"))),
    # a jump of more than two box widths folds twice about the faces
    ("reflect_reflect_axis_folded_once",
     (generator_core, "_fold", _fold_reflect_once),
     (test_generator_core,
      "test_separable_rows_are_the_kronecker_sum_of_the_axis_rows",
      ("reflect",))),
    # 9 x 11 points, each axis with its own drift and diffusion
    ("axis_generators_in_reversed_order",
     (generator_core, "_axis_generators", _axis_generators_reversed),
     (test_matrix_lab, "test_discretize_hands_over_the_per_axis_generators",
      ("2d-reflect",))),
    ("axis_generator_rate_shifted",
     (generator_core, "_axis_generators", _axis_generators_shifted),
     (test_matrix_lab, "test_discretize_hands_over_the_per_axis_generators",
      ("2d-reflect",))),
    ("one_step_without_bridge_test",
     (monte_carlo, "_one_step_exact", _one_step_without_bridge_test),
     (test_monte_carlo,
      "test_constant_coefficient_kernel_matches_plain_step_loop",
      ("constant_drift_absorb",))),
    ("one_step_reflecting_a_drift",
     (monte_carlo, "_one_step_exact", _one_step_blind_to_drift),
     (test_monte_carlo,
      "test_constant_coefficient_kernel_matches_plain_step_loop",
      ("reflect_drift",))),
    ("one_step_with_a_varying_coefficient",
     (monte_carlo, "_one_step_exact", _one_step_blind_to_variables),
     (test_monte_carlo,
      "test_constant_coefficient_kernel_matches_plain_step_loop",
      ("mixed_2d_absorb_bridge",))),
    # a bound too small for any candidate event passes with no jump
    ("thinning_bound_unchecked_at_the_start",
     (monte_carlo, "_check_scheme", _check_scheme_without_the_start_rate),
     (test_cli_reports,
      "test_cli_exit_two_on_a_rate_bound_below_the_start_rate", ())),
    # the step kernel opens a stream for a diffusion it cannot simulate
    ("generic_diffusion_admitted",
     (monte_carlo, "_check_scheme", _check_scheme_admitting_any_diffusion),
     (test_monte_carlo,
      "test_state_dependent_full_diffusion_raises_unsupported_scheme",
      ())),
    ("one_step_bridge_test_on_cfg_dt",
     (monte_carlo, "_bridge_hits", _bridge_test_on_cfg_dt),
     (test_monte_carlo, "test_killed_brownian_motion_with_drift_law",
      (0.0,))),
] + [
    (f"stable_amplitude_scaled_d{case[0]}_alpha{case[1]}",
     (monte_carlo, "positive_stable_sample", _stable_amplitude_scaled),
     (test_monte_carlo, "test_stable_euler_moment_matches_the_closed_form",
      case))
    for case in ((2, 1.0, 1.0), (2, 1.5, 0.7), (3, 1.2, 1.0))
]


@pytest.mark.parametrize("defect, patch, catcher", DEFECTS,
                         ids=[f"{d}-{c[1]}" for d, _, c in DEFECTS])
def test_defect_fails_its_test(defect, patch, catcher, monkeypatch):
    module, name, stand_in = patch
    tests, test_name, args = catcher
    test = getattr(tests, test_name)
    test(*args)
    monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(AssertionError):
        test(*args)
