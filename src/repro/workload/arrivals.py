"""Query arrival processes and the source of a run's queries.

The paper draws query inter-arrival times from an exponential distribution
(default) or from the heavy-tailed Pareto distribution with CDF
``F(x) = 1 - (k/(x+k))^alpha`` whose scale ``k`` is set so the mean rate
``(alpha-1)/k`` equals the sweep's ``lambda``.

:class:`QuerySource` issues them: a deferred chain on the event kernel,
one firing per arrival, both draws read a block ahead.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.stats.distributions import Distribution, Exponential, Pareto
from repro.workload.selection import NodeId, ZipfNodeSelector

#: Draws per refill of a read-ahead buffer (``net/transport.py`` reads
#: hop latencies ahead the same way).
_BLOCK = 1024


def read_ahead(law, rng: np.random.Generator) -> Iterator:
    """The draws ``law.sample(rng)`` would make, sampled a block ahead.

    ``sample_block`` is by construction the scalar sequence read ahead
    (``tests/test_stats.py::TestBlockDraws``).  Draws wait in their block
    before they are used, so ``rng`` must have no other consumer — the
    rule ``Transport._next_delay`` documents.
    """
    # iter(callable, sentinel): one refill per exhausted block, for ever.
    return chain.from_iterable(
        iter(lambda: law.sample_block(rng, _BLOCK).tolist(), None)
    )


class ArrivalProcess:
    """Draws successive inter-arrival gaps from a distribution (read
    ahead, so ``rng`` must have no other consumer)."""

    def __init__(self, interarrival: Distribution, rng: np.random.Generator):
        self._interarrival = interarrival
        #: ``next_gap()`` is the time until the next arrival.
        self.next_gap = read_ahead(interarrival, rng).__next__

    @property
    def mean_rate(self) -> float:
        """Theoretical arrivals per unit time."""
        return 1.0 / self._interarrival.mean

    def __repr__(self) -> str:
        return f"ArrivalProcess({self._interarrival!r})"


class QuerySource:
    """The run's query arrivals: a self-rescheduling deferred chain.

    Each firing draws the origin's Zipf *rank*, maps it through the
    selector's ranking as it stands at that instant (a flash-crowd
    ``flip_ranks`` between two arrivals lands), calls ``issue(origin)``
    and only then draws the next gap and defers the next firing by it —
    whatever ``issue`` sends takes its sequence numbers first.  Gaps and
    ranks are read ahead, so ``arrivals`` and ``draws`` must have no
    other consumer; the ``(time, origin)`` sequence is then bit-identical
    to one scalar draw per arrival (the oracle in ``test_workload.py``).

    With ``eligible`` (churn, faults) ineligible origins are redrawn as
    in :meth:`ZipfNodeSelector.sample_alive` and an arrival that finds
    none is skipped.  With ``modulation`` (diurnal sessions) each gap is
    divided by ``modulation(now)`` at the instant it is drawn.
    """

    def __init__(
        self,
        env,
        arrivals: ArrivalProcess,
        selector: ZipfNodeSelector,
        draws: np.random.Generator,
        issue: Callable[[NodeId], None],
        eligible: Optional[Callable[[NodeId], bool]] = None,
        modulation: Optional[Callable[[float], float]] = None,
    ):
        self._env = env
        self._next_gap = arrivals.next_gap
        self._selector = selector
        self._ranking = selector.ranking
        self._next_rank = read_ahead(selector.rank_law, draws).__next__
        self._issue = issue
        self._eligible = eligible
        self._modulation = modulation

    def schedule_next(self) -> None:
        """Schedule the next arrival; every firing then re-arms itself."""
        gap = self._next_gap()
        if self._modulation is not None:
            gap /= self._modulation(self._env._now)
        self._env.defer(gap, self._fire)

    def _fire(self) -> None:
        if self._eligible is None:
            self._issue(self._ranking[self._next_rank()])
        else:
            node = self._selector.first_alive(self._next_rank, self._eligible)
            if node is not None:
                self._issue(node)
        # :meth:`schedule_next`, inline: one frame fewer per arrival.
        gap = self._next_gap()
        if self._modulation is not None:
            gap /= self._modulation(self._env._now)
        self._env.defer(gap, self._fire)


def make_arrival_process(
    kind: str,
    rate: float,
    rng: np.random.Generator,
    pareto_alpha: float = 1.05,
) -> ArrivalProcess:
    """Build the paper's arrival process.

    Parameters
    ----------
    kind:
        ``"exponential"`` or ``"pareto"``.
    rate:
        Network-wide query arrival rate ``lambda`` (queries per second).
    rng:
        Random stream (typically ``"arrivals"``).
    pareto_alpha:
        Tail index for the Pareto case (paper uses 1.05 and 1.20).
    """
    if rate <= 0:
        raise WorkloadError(f"query rate must be positive, got {rate}")
    if kind == "exponential":
        return ArrivalProcess(Exponential.from_rate(rate), rng)
    if kind == "pareto":
        return ArrivalProcess(Pareto.from_rate(pareto_alpha, rate), rng)
    raise WorkloadError(
        f"unknown arrival kind {kind!r}; use 'exponential' or 'pareto'"
    )
