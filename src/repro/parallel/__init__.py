"""Portfolio-parallel RMRLS search.

Races the ranked first-level restart seeds (Sec. IV-E) across isolated
worker processes, sharing the incumbent solution depth so every racer
prunes against the fleet-wide best.  See ``docs/parallel.md``.
"""

from repro.parallel.bound import LocalBound, SharedBound
from repro.parallel.portfolio import (
    PortfolioSummary,
    SliceOutcome,
    partition_seeds,
    synthesize_portfolio,
)

__all__ = [
    "LocalBound",
    "PortfolioSummary",
    "SharedBound",
    "SliceOutcome",
    "partition_seeds",
    "synthesize_portfolio",
]
