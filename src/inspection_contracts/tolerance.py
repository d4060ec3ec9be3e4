"""The package's one tolerance policy; both slacks are dimensionless.

``TOL`` is for comparing gamma, beta, probabilities and inspector counts, and
money divided by R_n = ``AgentSpec.money_scale``, the agent's largest reward,
so results do not depend on the currency unit.  For the same reason every
closed form takes money as ratios of two amounts, never as a product of two,
which overflows or underflows far sooner.  ``QUOTIENT_TOL`` is only for
quotients with a larger relative error: a span divided by a grid step before
flooring (``grid_steps``), and scheduler probabilities conditioned on a
normalizer near zero.
"""

import math

TOL = 1e-12
QUOTIENT_TOL = 1e-9


def grid_steps(span: float, step: float) -> float:
    """The whole steps of ``step`` in ``span``, floor(span / step + QUOTIENT_TOL);
    inf when the quotient overflows, which has no floor."""
    ratio = span / step + QUOTIENT_TOL
    return math.floor(ratio) if math.isfinite(ratio) else math.inf
