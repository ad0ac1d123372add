"""twistorcheck: verification toolkit for twistor models over the projective line.

Represents twistor spaces as polynomial data with a real structure, computes
their real sections, and checks hypercomplex-space conditions: fiber
incidence counts, singular and branch loci, normal-sheaf splitting, quotient
component counts and the rank-one symmetric-matrix model.
"""

__version__ = "0.1.0"

from .analysis import (BranchReport, FamilyDescriptor, FiberPoint,
                       FiberSolveResult, HCClassification, MatrixOracleReport,
                       NormalBundleReport, SingularReport, SolveConfig,
                       branch_test, classify_hypercomplex, component_label,
                       evaluate_section, normal_splitting,
                       rank_one_matrix_oracle, sample_sections, singular_scan,
                       solve_fiber, solve_fibers, sym_matrix_model)
from .errors import (DegreeError, DimensionError, FiberError, GroupAxiomError,
                     ModelError, NonInvolutiveError, OriginError, RealityError,
                     ScenarioError, TwistorCheckError, WeightError)
from .models import (FiberEquation, TwistorModel, ValidationReport,
                     build_deformed, build_quadric, build_smooth_o11,
                     glue_cone_twistor, lambda_reality_type,
                     models_structurally_equal, quadric_params, quadric_tuple,
                     squaring_section, validate_model)
from .projline import (CoeffPoly, P1Point, SectionBasis, SigmaCoordRule,
                       SplittingType, kernel_splitting, reality_fixed_space,
                       tau_pullback)
from .quotients import (FiniteQuaternionGroup, InvolutionCensus,
                        binary_dihedral, builtin_group,
                        closure_equals_quotient, component_count, cyclic_group,
                        involution_census, quaternion_group_q8,
                        veronese_quotient_check)
from .scalars import GaussianRational
from .systems import RealEquationSystem, real_section_system
