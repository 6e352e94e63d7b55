"""Test paths into the kernel: state-level quantities and the V search's objective.

The package evaluates its formulas at operating points (``keyrate.rate_at``)
and over arrays (``keyrate.rate_cells``).  ``on_triple`` runs one of the
private array functions on the (a, b, c) of any state, physical or not,
and raises the first error it records, as the kernel reports it.
"""

import numpy as np

from sqccqkd.errors import Checks
from sqccqkd.gaussian import _check_overflow, _physicality
from sqccqkd.keyrate import rate_rows


@np.errstate(all="ignore")
def on_triple(fn, state, *args):
    """``fn(checks, a, b, c, *args)`` on the state's triple; raises its first error."""
    checks = Checks()
    value = fn(checks, *(np.float64(x) for x in (state.a, state.b, state.c)), *args)
    checks.raise_first()
    return value


def verdict(checks, a, b, c):
    """The uncertainty-principle verdict, whose spectrum may not overflow."""
    result = _physicality(a, b, c)
    _check_overflow(checks, result.overflow, a, b, c)
    return result


def qos_objective(chan, qos_threshold):
    """The asymptotic rate at an array of V, -inf where infeasible; d meets the QoS."""
    def objective(v):
        cells, checks = rate_rows([chan], [qos_threshold], v)
        assert not checks.code.any()
        return np.where(cells["feasible"], cells["K"], -np.inf)

    return objective
