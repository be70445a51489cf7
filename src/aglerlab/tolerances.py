"""Default numerical tolerances.

The hierarchy is: construction residuals are tightest, operator identity
residuals one step looser, comparisons against independent oracles loosest.
Functions consuming ``CONSTRUCTION_TOL``, ``IDENTITY_TOL`` or ``SLACK_TOL``
accept a per-call override; the others are read directly.
"""

CONSTRUCTION_TOL = 1e-12
"""Unitarity residual allowed for freshly constructed colligations."""

IDENTITY_TOL = 1e-10
"""Residual allowed when checking exact operator identities."""

ORACLE_TOL = 1e-6
"""Relative deviation allowed between realization formulas and oracles."""

SLACK_TOL = 1e-9
"""Inequality slack below -SLACK_TOL counts as a violation."""

ADMISSIBILITY_MARGIN = 1e-12
"""Admissible points have domain norm < 1 - ADMISSIBILITY_MARGIN."""

CONDITION_LIMIT = 1e14
"""Resolvent condition number beyond which a context is flagged."""

BOUNDARY_FLAG_DISTANCE = 1e-6
"""Points with domain norm within this of 1 are flagged, not asserted."""
