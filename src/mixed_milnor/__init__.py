"""Numerical certification and continuation toolkit for mixed Brieskorn-type
polynomials: deformation families to holomorphic associates, singularity and
sphere-transversality certification, isotopy transport and link exploration."""

__version__ = "0.1.0"

from .core import (
    MixedMonomial,
    MixedPolynomial,
    WeightSystem,
    detect_weights,
    evaluate,
    is_simplicial,
)
from .families import DeformationFamily, FamilySpec, MilnorTubeSpec, build_family, eta_map
from .isotopy import IsotopyTrace, transport
from .links import LinkSample, project_svg, sample_link
from .scaling import ScalingSolution, normalize_coefficients, verify_scaling
from .singularity import ShellSearchReport, certify_smooth_shell
from .transversality import (
    TransversalitySweep,
    check_transversality,
    conjecture_search_type_ii,
)
