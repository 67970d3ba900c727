"""Exact arithmetic for rings of h-deformed differential operators."""

from .ratfield import (Poly, RatFun, DomainError, PoleError,
                       partial_fractions, rank_exact, eps_vec)
from .rmatrix import (r_component, psi_component, chi, elementary_symmetric,
                      complete_symmetric, CheckReport)
from .potential import (NotFlat, NotInW, sigma_from_potential,
                        sigma_system_check, delta_system_check, w_decompose,
                        WDecomposition, reconstruct_potential,
                        is_polynomial_potential)
from .diffring import (RingSpec, NormalElement, normal_form, multiply,
                       commutator, module_form, epsilon_antiauto, verify_pbw,
                       GeneratorAssignment, check_assignment,
                       zhelobenko_assignment, scaling_assignment,
                       localized_coordinates_commute)
from .central import (CentralFamily, central_family, verify_central,
                      character_map, MismatchError)
from .lowestweight import (Weight, NonGenericWeight, generic_lambda, LWVector,
                           act, central_character)
from .multicopy import (SigmaArray, constant_profile, mixed_normal_form,
                        vcopy_normal_form, flatness_check, ambiguity_oracle)
from .expressions import (parse, infer_n, evaluate, parse_and_eval,
                          format_ratfun, format_element,
                          latex_ratfun, latex_element, format_value,
                          value_to_json, value_from_json)

__version__ = "0.1.0"
