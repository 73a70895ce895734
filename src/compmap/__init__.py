"""Analysis toolkit for planar competitive maps.

Core objects: PlanarMap (a pair of components on a rectangle, evaluated on
floats by step and on numpy arrays by the optional batch step),
FixedPointRecord (equilibria and minimal period-two points with
eigen-structure), MonotoneCurve (traced separatrices and unstable curves),
and BasinRaster (labeled basin decompositions). Built-in systems with
closed-form fixtures live in compmap.systems; user-defined maps can be
written in a small expression language (compmap.expr).

The names below are imported from their modules on first use (PEP 562), so
a process loads only the modules it asks for.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides; "name=attr" exports attr as name
_EXPORTS = {
    "errors": """ConstraintError DegenerateRootError DomainError HypothesisError
                 MapEvalError NoConvergenceError ParseError SingularityError
                 UnboundParameterError""",
    "geometry": "Matrix2 Point2 Rect le_se order_interval",
    "planarmap": """CompetitivityReport OConditionReport Orbit PlanarMap
                    check_competitive check_O_condition evaluate fd_jacobian
                    jacobian orbit""",
    "expr": "differentiate eval_expr=evaluate expr_map parse to_text",
    "fixedpoints": """BoundaryEndpointReport EigenData FixedPointRecord
                      InvariantCurveHypotheses check_boundary_endpoint_conditions
                      check_invariant_curve_hypotheses eigen2x2 find_fixed_point
                      find_period_two""",
    "classification": """LocalVerdict OrderInterval TaylorRay classify_hyperbolic_ray
                         classify_nonhyperbolic find_order_interval
                         first_nonzero_index is_subsolution is_supersolution
                         taylor_along_eigenvector""",
    "curves": """CurveOptions EndpointLabel MonotoneCurve endpoint_analysis
                 trace_stable_curve trace_unstable_curve validate_curve""",
    "basins": """BasinRaster ContinuityReport LimitRecord SideOptions SideVerdict
                 classify_batch classify_side continuity_probe limit_equilibrium
                 load_csv_raster load_pgm raster raster_to_csv raster_to_pgm
                 save_raster""",
    "systems": """DEFAULT_PARAMS DESCRIPTIONS EXAMPLE_IDS Continuum Ex5Curves
                  Ex5TwoEquilibria ExampleSystem Fixture ex5_critical_curves
                  ex5_equilibria find_ex5_two_equilibria make_example
                  sweep_continuum""",
}
_SOURCE = {name.partition("=")[0]: (module, name.partition("=")[2] or name)
           for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCE[name]
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
