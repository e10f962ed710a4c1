import twofold


def test_public_names_are_pinned():
    # a name leaves or joins the package surface only by editing this list
    assert twofold.__all__ == [
        "AlphaZeroError", "BoundarySingularityError", "ConfigError", "CurveL",
        "EJECT_MINUS", "EJECT_PLUS", "Event", "ExpressionError",
        "FoldedSingularity", "IntegratorOptions", "NonconvergentEventError",
        "PiecewiseSmoothSystem", "STAY_SLIDING", "Scenario", "SlidingSolution",
        "SmoothField", "Trajectory", "TransformContext", "TransformDomainError",
        "TwoFoldFlavor", "TwoFoldParams", "builtin", "builtin_names",
        "classify_two_fold", "curve_L", "curve_functions",
        "equivalence_residual", "folded_normal_field",
        "folded_singularities", "from_x_tilde", "from_y",
        "integrate_blowup", "integrate_filippov", "integrate_smooth",
        "integrate_smoothed", "load_config", "normal_form_system", "parse_expr",
        "parse_field", "pushforward", "region_classify", "save_run",
        "sliding_lambda", "to_x_tilde",
        "to_y", "transform_check",
    ]
