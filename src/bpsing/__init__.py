"""Workbench for the combinatorial calculus of graded Brieskorn-Pham
singularities, with a matrix-factorization Hom oracle for auditing."""

from .grading import (
    Dichotomy,
    GradeElement,
    GroupEmbedding,
    NotInImageError,
    WeightSystem,
    dichotomy,
    normalize,
)
from .gmod import GradedModule, adjunction_check, make_E, make_simple, module_hom_dim, phi0_module, psi0_module
from .stable import StableObject, U, cuboid_objects, hom_dim, hom_series, hom_table, knorrer_transport, parse_object, rho_k, zero_object
from .functor import Ladder, check_recollement, insert, predict_projective_image, reduce
from .tilting import TiltingFamily, UnknownHomError, family, glue, hom_matrix, predicted_cartan, verify_tilting
from .qalg import (
    AlgebraPresentation,
    IntPolynomial,
    coxeter_polynomial,
    dynkin_path_algebra,
    gamma_quiver,
    lambda_q,
    nakayama,
    replicated,
)
from .mforacle import GradedMF, hom_profile, mf_of, oracle_hom, rank1_mf, stable_hom_dim_oracle, tensor_mf
from .linalg import DEFAULT_MODULUS, PARANOIA_MODULUS

__version__ = "0.1.0"
