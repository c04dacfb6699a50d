"""Reproduction of "DUP: Dynamic-tree Based Update Propagation in
Peer-to-Peer Networks" (Yin & Cao, ICDE 2005).

The library provides:

- the DUP protocol itself (:mod:`repro.core`) and its baselines PCX and
  CUP (:mod:`repro.schemes`);
- every substrate the paper depends on — a discrete-event kernel
  (:mod:`repro.sim`), index search trees and a Chord DHT
  (:mod:`repro.topology`), versioned TTL index caches (:mod:`repro.index`),
  hop-accounted messaging (:mod:`repro.net`), and the paper's workload
  model (:mod:`repro.workload`);
- a simulation engine with replication/comparison runners
  (:mod:`repro.engine`) and one experiment module per paper table/figure
  (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import SimulationConfig, compare_schemes
>>> config = SimulationConfig(
...     num_nodes=128, query_rate=2.0, duration=18_000.0, warmup=7_200.0
... )
>>> comparison = compare_schemes(config, replications=1)   # doctest: +SKIP
>>> print(comparison)                                      # doctest: +SKIP
"""

from repro.core import DupProtocol, SubscriberList, WindowInterestPolicy
from repro.engine import (
    ComparisonResult,
    ReplicatedResult,
    Simulation,
    SimulationConfig,
    SimulationResult,
    compare_schemes,
    run_replications,
    run_scale,
    run_simulation,
)
from repro.engine.runner import sweep
from repro.errors import ReproError
from repro.schemes import available_schemes, make_scheme
from repro.topology import ChordRing, SearchTree, chord_search_tree, random_search_tree
from repro.workload import ChurnConfig

__version__ = "1.0.0"

__all__ = [
    "ChordRing",
    "ChurnConfig",
    "ComparisonResult",
    "DupProtocol",
    "ReplicatedResult",
    "ReproError",
    "SearchTree",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SubscriberList",
    "WindowInterestPolicy",
    "__version__",
    "available_schemes",
    "chord_search_tree",
    "compare_schemes",
    "make_scheme",
    "random_search_tree",
    "run_replications",
    "run_scale",
    "run_simulation",
    "sweep",
]
