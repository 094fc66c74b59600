"""Durability analysis: annual data-loss odds per redundancy scheme.

The paper asserts Hy(1, EC(k,n)) provides "sufficient durability (one
extra replica over an already durable EC stripe)" — this module makes
that quantitative with the standard Markov MTTDL model: chunks fail
independently at rate ``lambda = AFR`` and are repaired at rate
``mu = 1 / MTTR``; data is lost when more chunks than the scheme
tolerates are simultaneously down.

The closed form for a scheme tolerating ``f`` failures out of ``m``
chunks (birth-death chain, repair dominance ``mu >> lambda``)::

    MTTDL ~ mu^f / (binom(m, f+1) * (f+1)! / (f+1) * lambda^(f+1))

computed here exactly by solving the absorbing chain numerically, so it
stays valid outside the asymptotic regime too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.schemes import ECScheme, HybridScheme, RedundancyScheme, Replication

HOURS_PER_YEAR = 24 * 365.0


@dataclass(frozen=True)
class FailureEnvironment:
    """Disk fleet parameters: annualised failure rate and repair time."""

    #: annual failure rate of one disk (typical fleet AFR: 1-4%)
    afr: float = 0.02
    #: mean time to repair/reconstruct one chunk, hours
    mttr_hours: float = 8.0

    @property
    def fail_rate_per_hour(self) -> float:
        return self.afr / HOURS_PER_YEAR

    @property
    def repair_rate_per_hour(self) -> float:
        return 1.0 / self.mttr_hours


def _scheme_shape(scheme: RedundancyScheme):
    """(total chunks m, tolerated failures f) for one protection group."""
    if isinstance(scheme, Replication):
        return scheme.copies, scheme.copies - 1
    if isinstance(scheme, HybridScheme):
        # One stripe + c replica blocks protecting the same span.
        return scheme.ec.n + scheme.copies, scheme.fault_tolerance
    if isinstance(scheme, ECScheme):
        return scheme.n, scheme.fault_tolerance
    raise ValueError(f"unknown scheme {scheme}")


def mttdl_hours(scheme: RedundancyScheme, env: Optional[FailureEnvironment] = None) -> float:
    """Mean time to data loss (hours) of one protection group.

    Solves the absorbing birth-death chain with states 0..f+1 failed
    chunks: failure rate from state i is ``(m - i) * lambda``, repair
    rate is ``i * mu`` (parallel repair), and state f+1 absorbs.
    """
    env = env or FailureEnvironment()
    m, f = _scheme_shape(scheme)
    lam = env.fail_rate_per_hour
    mu = env.repair_rate_per_hour
    n_states = f + 1  # transient states 0..f
    # Expected time to absorption: solve (I - P_t) t = dt in CTMC form:
    # Q t = -1 over transient states.
    q = np.zeros((n_states, n_states))
    for i in range(n_states):
        up = (m - i) * lam
        down = i * mu
        q[i, i] = -(up + down)
        if i + 1 < n_states:
            q[i, i + 1] = up
        if i - 1 >= 0:
            q[i, i - 1] = down
    t = np.linalg.solve(q, -np.ones(n_states))
    return float(t[0])


def annual_loss_probability(
    scheme: RedundancyScheme,
    env: Optional[FailureEnvironment] = None,
    groups: int = 1,
) -> float:
    """P(any of ``groups`` protection groups loses data within a year)."""
    hours = mttdl_hours(scheme, env)
    per_group = -np.expm1(-HOURS_PER_YEAR / hours)  # precise for tiny p
    return float(-np.expm1(groups * np.log1p(-per_group)))


def nines(probability_of_loss: float) -> float:
    """Durability 'nines': -log10 of the annual loss probability."""
    if probability_of_loss <= 0:
        return float("inf")
    return float(-np.log10(probability_of_loss))
