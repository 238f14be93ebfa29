"""cdgacalc: exact bigraded cohomology of graded-commutative algebra models.

The package builds finitely presented commutative differential graded
algebras of the shape ``B (x) Sym_gr(generators) / ideal`` over Q, where B
is a finite-dimensional Poincare duality algebra, and computes their
cohomology slice by slice in (degree, weight).  Built-in model families
cover ordered configuration spaces of points on a projective variety and
the stable models for spaces of nonvanishing sections with point
constraints, together with the generating functions and symmetric-group
refinements attached to them.
"""

from .rat import Rational, exact, rat, rat_from_str
from .linalg import SparseMatrix, RrefResult, rref, rank
from .algebra import (AlgebraError, BaseAlgebra, GeneratorSpec, Monomial,
                      Element, AlgebraContext, MonomialPermutation,
                      TensorAlgebra, tensor_many, tensor_power,
                      load_base_algebra, base_algebra_from_dict)
from .engine import (Presentation, PresentationError, SliceBasis,
                     FactoredSlice,
                     CohomologyTable, VerificationReport, ideal_slice,
                     quotient_slice, differential_matrix, differential_rank,
                     cohomology, verify_d_squared)
from .models import (ProjectiveSpace, Surface, Product, Custom, SpaceSpec,
                     ChernData, parse_space, parse_ample_class, build_base,
                     degree_two_class, dual_basis, configuration_model,
                     section_model, twisted_section_model, euler_class_twist,
                     cotangent_chern, symmetric_action)
from .analysis import (BigradedSeries, ClassFunction, poincare_series_U,
                       weightwise_euler, configuration_euler,
                       p_r_closed_form, rho_series,
                       rho_bracket, r1_stable_series, invariant_cohomology,
                       isotypic_cohomology, character_euler,
                       stable_range_bound, trivial_character, sign_character,
                       all_permutations, generated_subgroup, cycle_type)

__version__ = "0.1.0"
