"""Set-up time in a fresh interpreter: import twofold.cli and build every
built-in scenario.  Prints the seconds and their reference-seconds scale
(calibrate.py) as one JSON list.  Nothing else is imported before timing.
"""

import calibrate


def load():
    import twofold.cli  # noqa: F401
    from twofold.scenarios import builtin, builtin_names
    for name in builtin_names():
        builtin(name)


_, seconds, scale = calibrate.Probe().time(load)
print(f"[{seconds!r}, {scale!r}]")
