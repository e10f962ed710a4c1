"""Analysis and simulation of two-fold singularities in piecewise-smooth
dynamical systems: layer (blow-up) dynamics on the switching surface, folded
singularities of the induced slow-fast system, the coordinate change linking
the two, and event-driven / regularized time integration."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .expr import ExpressionError, parse_expr
from .fields import (PiecewiseSmoothSystem, SmoothField, TwoFoldParams,
                     normal_form_system, parse_field)
from .integrate import (EJECT_MINUS, EJECT_PLUS, STAY_SLIDING, Event,
                        IntegratorOptions, NonconvergentEventError, Trajectory,
                        integrate_blowup, integrate_filippov,
                        integrate_smooth, integrate_smoothed)
from .scenarios import (ConfigError, Scenario, builtin, builtin_names,
                        load_config, save_run)
from .singularities import (AlphaZeroError, BoundarySingularityError,
                            FoldedSingularity, TwoFoldFlavor, classify_two_fold,
                            folded_singularities)
from .sliding import (CurveL, SlidingSolution, curve_L, region_classify,
                      sliding_lambda)
from .transform import (TransformContext, TransformDomainError, chart,
                        equivalence_residual, folded_normal_field,
                        from_x_tilde, transform_check)

# every name imported above; the submodules those imports bind are not
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
