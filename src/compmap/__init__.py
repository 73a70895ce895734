"""Analysis toolkit for planar competitive maps.

Core objects: PlanarMap (a pair of components on a rectangle, evaluated on
floats by step and on numpy arrays by the optional batch step),
FixedPointRecord (equilibria and minimal period-two points with
eigen-structure), MonotoneCurve (traced separatrices and unstable curves),
and BasinRaster (labeled basin decompositions). Built-in systems with
closed-form fixtures live in compmap.systems; user-defined maps can be
written in a small expression language (compmap.expr).
"""

from .errors import (ConstraintError, DegenerateRootError, DomainError,
                     HypothesisError, MapEvalError, NoConvergenceError,
                     ParseError, SingularityError, UnboundParameterError)
from .geometry import Matrix2, Point2, Rect, le_se, order_interval
from .planarmap import (CompetitivityReport, OConditionReport, Orbit,
                        PlanarMap, check_competitive, check_O_condition,
                        evaluate, fd_jacobian, jacobian, orbit)
from .expr import (differentiate, evaluate as eval_expr, expr_map, parse,
                   to_text)
from .fixedpoints import (BoundaryEndpointReport, EigenData, FixedPointRecord,
                          InvariantCurveHypotheses,
                          check_boundary_endpoint_conditions,
                          check_invariant_curve_hypotheses, eigen2x2,
                          find_fixed_point, find_period_two)
from .classification import (LocalVerdict, OrderInterval, TaylorRay,
                             classify_hyperbolic_ray, classify_nonhyperbolic,
                             find_order_interval, first_nonzero_index,
                             is_subsolution, is_supersolution,
                             taylor_along_eigenvector)
from .curves import (CurveOptions, EndpointLabel, LimitRecord, MonotoneCurve,
                     SideOptions, SideVerdict, classify_batch, classify_side,
                     endpoint_analysis, limit_equilibrium, trace_stable_curve,
                     trace_unstable_curve, validate_curve)
from .basins import (BasinRaster, ContinuityReport, continuity_probe,
                     load_csv_raster, load_pgm, raster, raster_to_csv,
                     raster_to_pgm, save_raster)
from .systems import (DEFAULT_PARAMS, DESCRIPTIONS, EXAMPLE_IDS, Continuum,
                      Ex5Curves, Ex5TwoEquilibria, ExampleSystem, Fixture,
                      ex5_critical_curves, ex5_equilibria,
                      find_ex5_two_equilibria, make_example, sweep_continuum)

__version__ = "0.1.0"
