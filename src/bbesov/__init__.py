"""Weighted harmonic function spaces on the unit ball.

Numerical machinery for reproducing kernels, radial differential operators,
pseudohyperbolic geometry, Carleson-type measure tests, Berezin transforms,
and finite truncations of positive Toeplitz operators, plus a verification
CLI exercising the library's internal identities at desk scale.
"""

# The zonal series is numpy; perfbench reports this name in its environment line.
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
