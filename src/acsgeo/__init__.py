"""Numerical geometry of statistical structures on almost contact metric
manifolds: chart-level tensor fields with exact forward-mode derivatives,
curvature machinery, and executable audits of the structure theorems."""

from .expressions import (Dual, DualScalar, EvalDomainError, ExprSyntaxError,
                          ExpressionError, NonFiniteError, ScalarField,
                          UnknownIdentifierError, eval_with_derivative,
                          parse_expression)
from .manifold import ChartManifold, PointFrame
from .metric import (DegeneratePlaneError, MetricField, SingularMetricError,
                     christoffel, covariant_derivative_11, nabla_g, riemann,
                     sectional_curvature)
from .contact import (DegenerateSeedError, ExhaustedCandidatesError,
                      is_cosymplectic, phi_basis, validate_structure)
from .statistical import (AcsViolatedError, ConnectionDifferenceTensor,
                          ExplicitDifferenceTensor, lambda_of, validate_acs,
                          validate_statistical)
from .curvature import (CrossCheckError, DegenerateSectionError,
                        NotHorizontalError, PhiSectionalValue,
                        PreconditionNotMetError, kk_bracket, kk_tensor,
                        phi_compat_check, phi_sectional_k_curvature, psi_check,
                        statistical_curvature, theorem_5_8_audit)
from .report import AuditReport, CheckRecord
from .zoo import (ZooEntry, example_flat_acs, example_r3_negative,
                  generate_random_acs, get_entry, list_zoo)
from .specfile import SpecFormatError, dump_spec, load_spec, manifold_from_dict

__version__ = "0.1.0"
