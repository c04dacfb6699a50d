"""Named, independently seeded random-number streams.

Stochastic simulations need *common random numbers* across compared
configurations: the arrival process must see the same randomness whether the
scheme under test is PCX, CUP, or DUP.  :class:`RandomStreams` derives one
independent :class:`numpy.random.Generator` per named purpose ("arrivals",
"topology", "latency", ...) from a single root seed, so that changing how
one stream is consumed never perturbs the others.
"""

from __future__ import annotations

import numpy as np

# numpy loads numpy.random on first attribute access; importing it here
# keeps that out of the first simulation constructor.
from numpy.random import PCG64, Generator, SeedSequence


class RandomStreams:
    """A family of independent random generators derived from one seed.

    Streams are created lazily by name.  The same ``(seed, name)`` pair
    always produces an identical stream, which makes every simulation run
    reproducible and lets compared schemes share workload randomness.

    Example
    -------
    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("topology")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self._seed = int(seed)
        self._streams: dict[str, Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this family was created from."""
        return self._seed

    def get(self, name: str) -> Generator:
        """Return (creating if needed) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            sequence = SeedSequence(
                self._seed, spawn_key=(_stable_hash(name),)
            )
            stream = Generator(PCG64(sequence))
            self._streams[name] = stream
        return stream

    def spawn(self, offset: int) -> "RandomStreams":
        """A new family for a replication, offset from the root seed."""
        return RandomStreams(self._seed + int(offset))

    @classmethod
    def for_trial(
        cls,
        root_seed: int,
        replication: int,
        experiment: str = "",
        point: object = None,
    ) -> "RandomStreams":
        """The stream family for one ``(experiment, point, replication)``
        trial (see :func:`derive_trial_seed`)."""
        return cls(
            derive_trial_seed(
                root_seed, replication, experiment=experiment, point=point
            )
        )

    def __repr__(self) -> str:
        return (
            f"RandomStreams(seed={self._seed}, "
            f"streams={sorted(self._streams)})"
        )


def derive_trial_seed(
    root_seed: int,
    replication: int,
    experiment: str = "",
    point: object = None,
) -> int:
    """The root seed of one trial's :class:`RandomStreams` family.

    This is the single place the engine turns a configuration's root seed
    into a per-trial seed, so the serial and multiprocess runners agree
    bit-for-bit: a trial's randomness depends only on the derived seed,
    never on which worker executes it or in what order.

    With the default empty key (``experiment=""``, ``point=None``) the
    derivation is the historical ``root_seed + replication`` rule, which
    keeps *common random numbers* across compared schemes (the runner
    varies only ``config.scheme`` between paired runs) and preserves every
    previously published number.  Supplying ``experiment``/``point``
    decorrelates sweep points by mixing a stable hash of the key into the
    seed — useful when independent points must not share workload
    randomness.  Either way, the per-purpose named streams ("arrivals",
    "topology", "faults", ...) are then spawned independently from the
    derived seed by :class:`RandomStreams`, so the fault-injection streams
    introduced with the resilience layer stay decoupled from the workload
    streams within each trial.
    """
    base = int(root_seed) + int(replication)
    if not experiment and point is None:
        return base
    key = f"{experiment}\x1f{point!r}"
    return (base + _stable_hash(key)) % (2**63 - 1)


def _stable_hash(name: str) -> int:
    """A deterministic 63-bit hash of ``name`` (``hash()`` is salted)."""
    value = 0
    for char in name.encode("utf-8"):
        value = (value * 131 + char) % (2**63 - 1)
    return value
