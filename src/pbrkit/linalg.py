"""The normalization tolerance shared by the state checks and the CLI."""

# Default tolerance for normalization checks.  A norm computed in double
# precision is off by about dim * 1e-16, so this leaves orders of margin.
TOL_NORM = 1e-10
