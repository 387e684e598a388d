"""Numerical certification and continuation toolkit for mixed Brieskorn-type
polynomials: deformation families to holomorphic associates, singularity and
sphere-transversality certification, isotopy transport and link exploration."""

__version__ = "0.1.0"

from .core import (
    MixedMonomial,
    MixedPolynomial,
    WeightSystem,
    WirtingerGradient,
    detect_weights,
    evaluate,
    is_simplicial,
    polar_action,
    wirtinger_gradient,
)
from .families import (
    DeformationFamily,
    FamilySpec,
    MilnorTubeSpec,
    build_family,
    eta_map,
    family_t_derivative,
    normalize_to_sphere,
)
from .isotopy import (
    IsotopyTrace,
    choose_tube_level,
    connection_velocity,
    integrate_isotopy,
    transport,
)
from .links import LinkSample, fibration_phase, project_svg, sample_link
from .scaling import ScalingSolution, normalize_coefficients, verify_scaling
from .singularity import (
    ShellSearchReport,
    SingularityResidualReport,
    certify_smooth_shell,
    lemma_inequality_check,
    singularity_residual,
)
from .transversality import (
    TransversalityCertificate,
    TransversalitySweep,
    TypeIWitnessTrace,
    check_transversality,
    conjecture_search_type_ii,
    radial_witness_brieskorn,
    rank_margins,
    rank_test,
    sample_on_variety,
    solve_phi,
    type_i_witness,
)
