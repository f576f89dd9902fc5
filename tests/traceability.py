"""Requirement traceability: every core formula maps to operations and tests.

Each entry names one formula or construction of the deformed-calculus
framework by what it does, the library operations realizing it, and the
tests exercising it.  ``test_trace.py`` cross-references the registry
against the required inventory and verifies that every referenced
operation and test exists, so coverage cannot silently rot.  The
registry is test metadata, so it lives beside the tests, not in the
package.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEntry:
    key: str
    summary: str
    operations: tuple
    tests: tuple


#: the full inventory of formulas the artifact must realize
REQUIRED_KEYS = (
    "null-cone-condition",
    "projective-null-chart",
    "spinor-point-scaling",
    "point-spinor-roots",
    "spinor-outer-encoding",
    "unimodular-conjugation",
    "conjugation-on-spinor-factors",
    "ordinary-differential-basics",
    "deformed-projection-differential",
    "deformed-zero-form-rule",
    "covector-dilatation",
    "dual-basis-obstruction",
    "deformed-dual-pairing",
    "orthogonal-dual-split",
    "bilinear-form-definition",
    "bilinear-symmetry",
    "degeneracy-witness",
    "null-deviation-forms",
    "two-dim-interval",
    "lightcone-velocity",
    "standard-null-residual",
    "metric-components-full",
    "metric-first-order-inverse",
    "tetrad-reconstruction",
    "deformed-anticommutator",
    "squared-dirac-reduction",
    "scalar-matrix-operator",
    "finite-region-kernel",
    "transform-parts-identities",
    "boundary-reduction-chain",
    "complex-time-kernel-factor",
    "matrix-dispersion-relation",
    "aligned-complex-spectrum",
    "frequency-domain-ode",
    "exponential-variable-change",
    "linearized-potential-form",
    "time-domain-complex-frequency",
    "k-form-spaces",
    "deformed-two-form-expansion",
    "deformed-k-form-induction",
    "exotic-exterior-derivative",
    "derivative-square-obstruction",
    "derivative-cube-vanishing",
    "wedge-leibniz-rule",
    "lambda-inclusion-pullback",
    "homotopy-operator",
    "homotopy-identity",
    "gauge-field-strength",
)


TRACE = (
    TraceEntry(
        "null-cone-condition",
        "flat quadratic form fixing the signature and the null cone",
        ("core.minkowski_dot", "core.lower_index"),
        ("test_core.py::test_minkowski_dot_examples", "test_core.py::test_lower_index_examples"),
    ),
    TraceEntry(
        "projective-null-chart",
        "unit-time celestial slice; subsumed by the scaled spinor chart",
        ("cartan.spinor_to_point",),
        ("test_cartan.py::test_spinor_to_point_axis_examples",),
    ),
    TraceEntry(
        "spinor-point-scaling",
        "spinor pair to arbitrary-scale future null point",
        ("cartan.spinor_to_point",),
        (
            "test_cartan.py::test_spinor_to_point_axis_examples",
            "test_cartan.py::test_spinor_to_point_always_null",
        ),
    ),
    TraceEntry(
        "point-spinor-roots",
        "square-root reconstruction of the spinor pair from a null point",
        ("cartan.point_to_spinor",),
        (
            "test_cartan.py::test_point_to_spinor_examples",
            "test_cartan.py::test_point_spinor_roundtrip",
            "test_cartan.py::test_point_to_spinor_phase_convention",
            "test_cartan.py::test_stacked_rejections_match_the_scalar_ones",
        ),
    ),
    TraceEntry(
        "spinor-outer-encoding",
        "rank-1 Hermitian outer product encoding the point",
        ("cartan.outer_matrix", "cartan.point_to_hermitian"),
        (
            "test_cartan.py::test_outer_matrix_examples",
            "test_cartan.py::test_hermitian_encoding_quadratic_form",
        ),
    ),
    TraceEntry(
        "unimodular-conjugation",
        "determinant-preserving conjugation as the Lorentz action",
        ("cartan.sl2c_act",),
        (
            "test_cartan.py::test_sl2c_identity_and_boost",
            "test_cartan.py::test_sl2c_sign_blind_and_det_preserving",
            "test_cartan.py::test_sl2c_rejects_non_unimodular",
            "test_cartan.py::test_stacked_kernels_repeat_the_per_sample_rows",
        ),
    ),
    TraceEntry(
        "conjugation-on-spinor-factors",
        "conjugation acts through the spinor factors; double cover sign",
        ("cartan.lorentz_matrix", "cartan.rotate_phase"),
        (
            "test_cartan.py::test_lorentz_matrix_double_cover_and_metric",
            "test_cartan.py::test_rotate_phase_double_cover",
        ),
    ),
    TraceEntry(
        "ordinary-differential-basics",
        "coordinate differentials and the plain exterior derivative",
        ("forms.exterior_d",),
        ("test_forms.py::test_exotic_d_flat_is_exterior_d",),
    ),
    TraceEntry(
        "deformed-projection-differential",
        "projection differentials acquire the x dtheta dilatation",
        ("forms.deformed_to_plain",),
        ("test_forms.py::test_deformed_to_plain_one_form_extra_component",),
    ),
    TraceEntry(
        "deformed-zero-form-rule",
        "zero-form differential with the dilatation scan term",
        ("forms.exotic_d",),
        (
            "test_forms.py::test_exotic_d_zero_form_example",
            "test_forms.py::test_exotic_d_constant_is_zero",
        ),
    ),
    TraceEntry(
        "covector-dilatation",
        "covector components after the dilatation",
        ("metric.dual_coefficients",),
        ("test_metric.py::test_dual_coefficients",),
    ),
    TraceEntry(
        "dual-basis-obstruction",
        "gradient configuration that annihilates a covector",
        ("metric.dual_obstruction",),
        ("test_metric.py::test_dual_obstruction",),
    ),
    TraceEntry(
        "deformed-dual-pairing",
        "pairing with the dilatation cross term",
        ("metric.inner_product_dual",),
        ("test_metric.py::test_inner_product_dual",),
    ),
    TraceEntry(
        "orthogonal-dual-split",
        "covectors orthogonal to the point pair undeformed",
        ("metric.inner_product_dual",),
        ("test_metric.py::test_inner_product_dual",),
    ),
    TraceEntry(
        "bilinear-form-definition",
        "deformed bilinear form from the dilated differentials",
        ("metric.bilinear_eval", "metric.metric_full"),
        (
            "test_metric.py::test_bilinear_matches_metric_contraction",
            "test_metric.py::test_bilinear_is_flat_product_of_shifted_vectors",
            "test_metric.py::test_metric_full_flat_limit",
        ),
    ),
    TraceEntry(
        "bilinear-symmetry",
        "symmetry of the deformed bilinear form",
        ("metric.bilinear_eval",),
        ("test_metric.py::test_bilinear_flat_and_symmetry",),
    ),
    TraceEntry(
        "degeneracy-witness",
        "witness covector whose vanishing marks degeneracy",
        ("metric.degeneracy_witness",),
        (
            "test_metric.py::test_degeneracy_witness_basics",
            "test_metric.py::test_constructed_degeneracy",
        ),
    ),
    TraceEntry(
        "null-deviation-forms",
        "quadratic form as the flat square of the shifted vector",
        ("metric.null_deviation",),
        ("test_metric.py::test_null_deviation_equals_bilinear_identically",),
    ),
    TraceEntry(
        "two-dim-interval",
        "two-dimensional deformed interval, first order in the gradient",
        ("metric.interval_2d",),
        (
            "test_metric.py::test_interval_2d_trivial_and_numeric",
            "test_metric.py::test_interval_at_lightcone_velocity_is_grade_two",
        ),
    ),
    TraceEntry(
        "lightcone-velocity",
        "disturbed light-cone velocities",
        ("metric.lightcone_velocity",),
        ("test_metric.py::test_lightcone_velocity_examples",),
    ),
    TraceEntry(
        "standard-null-residual",
        "flat-null vectors that stay null: orthogonal-gradient and null-point cases",
        ("metric.null_deviation",),
        (
            "test_metric.py::test_null_vector_orthogonal_gradient_stays_null",
            "test_metric.py::test_null_case_lightlike_point",
        ),
    ),
    TraceEntry(
        "metric-components-full",
        "deformed metric components with the quadratic term",
        ("metric.metric_full",),
        ("test_metric.py::test_metric_full_hand_values",),
    ),
    TraceEntry(
        "metric-first-order-inverse",
        "first-order metric and its first-order inverse",
        ("metric.metric_first_order", "metric.metric_inverse_first_order"),
        (
            "test_metric.py::test_metric_first_order_hand_values",
            "test_metric.py::test_inverse_first_order_values_and_contraction",
        ),
    ),
    TraceEntry(
        "tetrad-reconstruction",
        "frame maps rebuilding the inverse metric",
        ("clifford.tetrads",),
        (
            "test_clifford.py::test_tetrads_flat_and_contractions",
            "test_clifford.py::test_tetrad_metric_reconstruction",
            "test_clifford.py::test_tetrad_covariant_metric_is_exactly_the_full_metric",
        ),
    ),
    TraceEntry(
        "deformed-anticommutator",
        "deformed gammas closing on the deformed metric",
        ("clifford.gamma_tilde",),
        (
            "test_clifford.py::test_deformed_anticommutator_grade_two",
            "test_clifford.py::test_lowered_anticommutator_matches_first_order_metric",
            "test_clifford.py::test_anticommutator_residual_numeric_slope",
        ),
    ),
    TraceEntry(
        "squared-dirac-reduction",
        "squared first-order operator reducing to the wave operator plus gradient terms",
        ("clifford.apply_exotic_kg", "oracles.dirac_apply_fd"),
        ("test_clifford.py::test_squared_dirac_consistency",),
    ),
    TraceEntry(
        "scalar-matrix-operator",
        "scalar wave operator with gradient, point, and commutator terms",
        ("clifford.kg_symbol", "clifford.apply_exotic_kg"),
        (
            "test_clifford.py::test_apply_matches_symbol_scalar",
            "test_clifford.py::test_apply_spinor_overlay_matches_full_symbol",
            "test_clifford.py::test_kg_symbol_quadratic_in_momentum",
            "test_clifford.py::test_kg_symbol_affine_in_gradient_and_point",
        ),
    ),
    TraceEntry(
        "finite-region-kernel",
        "bounded-region transform kernel replacing the delta",
        ("dispersion.delta_sigma",),
        ("test_dispersion.py::test_delta_matches_quadrature",),
    ),
    TraceEntry(
        "transform-parts-identities",
        "first- and second-derivative transform identities with face terms",
        ("dispersion.fourier_parts_check",),
        (
            "test_dispersion.py::test_parts_identities_gaussian",
            "test_dispersion.py::test_parts_identities_constant_and_plane_wave",
        ),
    ),
    TraceEntry(
        "boundary-reduction-chain",
        "boundary-laden relation kept only through its usable reductions",
        (
            "dispersion.delta_sigma",
            "dispersion.fourier_parts_check",
            "clifford.kg_symbol",
        ),
        ("test_dispersion.py::test_dispersion_matrix_equals_symbol_without_x_term",),
    ),
    TraceEntry(
        "complex-time-kernel-factor",
        "time factor of the kernel under complex frequency",
        ("dispersion.delta_sigma",),
        (
            "test_dispersion.py::test_delta_at_zero_is_volume_exactly",
            "test_dispersion.py::test_delta_periodic_null",
            "test_dispersion.py::test_delta_series_branch_continuity",
        ),
    ),
    TraceEntry(
        "matrix-dispersion-relation",
        "momentum-side matrix relation with the commutator term",
        ("clifford.kg_symbol",),
        (
            "test_dispersion.py::test_dispersion_matrix_on_shell_trivial",
            "test_dispersion.py::test_dispersion_matrix_constraint_offdiagonal_zero",
        ),
    ),
    TraceEntry(
        "aligned-complex-spectrum",
        "gradient-aligned constraint and the complex energy roots",
        ("dispersion.constrained_spectrum", "dispersion.spectrum_reference_approx"),
        (
            "test_dispersion.py::test_constrained_spectrum_time_gradient",
            "test_dispersion.py::test_reference_approx_imaginary_part_and_sign_report",
            "test_dispersion.py::test_constrained_spectrum_against_companion_oracle",
        ),
    ),
    TraceEntry(
        "frequency-domain-ode",
        "single-frequency second-order boundary-value reduction",
        ("pde.solve_ode_x",),
        (
            "test_pde.py::test_ode_x_free_case_oscillatory",
            "test_pde.py::test_ode_x_numeric_vs_closed_random",
        ),
    ),
    TraceEntry(
        "exponential-variable-change",
        "first-derivative elimination by the exponential map",
        ("pde.change_of_variable", "pde.solve_ode_y"),
        (
            "test_pde.py::test_change_of_variable",
            "test_pde.py::test_ode_y_mapped_back_agreement",
        ),
    ),
    TraceEntry(
        "linearized-potential-form",
        "first-order expansion of the mapped coefficient",
        ("pde.solve_ode_y",),
        ("test_pde.py::test_ode_y_linearized_second_order_deviation",),
    ),
    TraceEntry(
        "time-domain-complex-frequency",
        "leapfrog mode frequencies: the scheme's roots, converging on the continuum relation",
        ("pde.simulate_time_domain", "dispersion.plane_wave_rates"),
        (
            "test_pde.py::test_mode_frequency_matches_the_scheme_and_converges_at_second_order",
            "test_pde.py::test_damping_rate_matches_mode_analysis",
        ),
    ),
    TraceEntry(
        "k-form-spaces",
        "antisymmetric k-form storage over exact polynomial coefficients",
        ("forms.ExoticForm", "poly.MultiPoly"),
        ("test_forms.py::test_canonical_antisymmetric_storage",),
    ),
    TraceEntry(
        "deformed-two-form-expansion",
        "two-form expansion of the deformed basis",
        ("forms.deformed_to_plain",),
        ("test_forms.py::test_deformed_to_plain_two_form_rule",),
    ),
    TraceEntry(
        "deformed-k-form-induction",
        "general k-form coefficient rule, all grades",
        ("forms.deformed_to_plain", "oracles.dense_deformed_to_plain"),
        (
            "test_forms.py::test_deformed_to_plain_trivial",
            "test_forms.py::test_deformed_to_plain_two_form_rule",
            "test_forms.py::test_deformed_to_plain_has_no_component_above_grade_one",
        ),
    ),
    TraceEntry(
        "exotic-exterior-derivative",
        "deformed exterior derivative with the dilatation scan",
        ("forms.exotic_d", "oracles.dense_exotic_d"),
        (
            "test_forms.py::test_exotic_d_zero_form_example",
            "test_forms.py::test_sparse_engine_matches_dense_route",
        ),
    ),
    TraceEntry(
        "derivative-square-obstruction",
        "nonvanishing square of the deformed derivative",
        ("forms.d_squared_check", "forms.d_squared_obstruction"),
        (
            "test_forms.py::test_d_squared_hand_example",
            "test_forms.py::test_d_squared_residual_zero_every_grade",
        ),
    ),
    TraceEntry(
        "derivative-cube-vanishing",
        "cube of the derivative vanishing for linear fields",
        ("forms.exotic_d",),
        ("test_forms.py::test_d_cubed_vanishes_for_linear_theta",),
    ),
    TraceEntry(
        "wedge-leibniz-rule",
        "graded product and the exact product rule",
        ("forms.wedge", "forms.leibniz_check"),
        ("test_forms.py::test_wedge_products", "test_forms.py::test_leibniz_exact"),
    ),
    TraceEntry(
        "lambda-inclusion-pullback",
        "inclusion at fixed lambda and its pullback on forms",
        ("forms.pullback_at", "forms.ExoticForm.extend_with_lambda"),
        ("test_forms.py::test_homotopy_lemma_classical_example",),
    ),
    TraceEntry(
        "homotopy-operator",
        "lambda-integration operator on extended forms",
        ("forms.homotopy_H",),
        (
            "test_forms.py::test_homotopy_operator_basics",
            "test_forms.py::test_homotopy_linear_and_nilpotent",
            "test_forms.py::test_homotopy_squares_to_zero",
        ),
    ),
    TraceEntry(
        "homotopy-identity",
        "homotopy identity relating the operator, the derivative, and pullbacks",
        ("forms.homotopy_lemma_check",),
        (
            "test_forms.py::test_homotopy_lemma_classical_example",
            "test_forms.py::test_homotopy_lemma_dlambda_only",
            "test_forms.py::test_homotopy_lemma_deformed_case",
        ),
    ),
    TraceEntry(
        "gauge-field-strength",
        "curvature of the dilated connection; gauge invariance broken",
        ("forms.field_strength", "forms.dilated_connection"),
        (
            "test_forms.py::test_field_strength_flat_limit",
            "test_forms.py::test_field_strength_cross_check_against_derivative",
            "test_forms.py::test_field_strength_constant_connection_breaks_gauge",
            "test_forms.py::test_gauge_shift_changes_field_strength_predictably",
        ),
    ),
)


def missing_keys() -> list:
    covered = {entry.key for entry in TRACE}
    return [key for key in REQUIRED_KEYS if key not in covered]


def unknown_keys() -> list:
    return [entry.key for entry in TRACE if entry.key not in REQUIRED_KEYS]


def resolve_operation(spec: str):
    """Resolve 'module.attr' or 'module.Class.attr' inside the package."""
    parts = spec.split(".")
    module = importlib.import_module(f"exocalc.{parts[0]}")
    obj = module
    for attr in parts[1:]:
        obj = getattr(obj, attr)
    return obj
