"""Exact analysis of reduced hypersurface germs at the origin: freeness,
Euler homogeneity, logarithmic residues and their duality with the Jacobian
ideal, conductor comparison, and normal crossing criteria."""

from .errors import (LogresError, ParseError, InputError, EngineError,
                     ConsistencyError)
from .poly import Poly, Order, parse, poly_str, poly_gcd, exact_div
from .groebner import (Vec, ModOrder, standard_basis, normal_form,
                       division_certificate, syzygies, ideal_quotient,
                       radical_test, min_generators_local, local_colength,
                       local_dim)
from .germs import (DivisorGerm, VectorField, SaitoMatrix, LogOneForm,
                    EulerField, log_derivations, is_free, euler_field,
                    log_forms_basis)
from .fractional import FractionalIdeal, jacobian_module, is_nzd, nzd_witness
from .residues import (MeroFraction, residue, residue_certificates,
                       residue_module, sigma_check, mu_residues,
                       gorenstein_singular_locus, direct_sum_check,
                       IdempotentData, validate_factorization)
from .normalization import (BranchParam, NormalizationData, puiseux_rational,
                            normalization_from_branches,
                            normalization_from_smooth_factors,
                            is_weakly_holomorphic, pullback,
                            branches_from_json)
from .criteria import (DivisorReport, analyze, analyze_text,
                       check_condition_C, check_condition_G,
                       check_condition_D, check_condition_B,
                       check_normal_crossing_at_origin,
                       classify_gorenstein_suspension)

__version__ = "0.1.0"
