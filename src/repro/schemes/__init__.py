"""Index caching / update propagation schemes.

- :class:`~repro.schemes.pcx.PcxScheme` — Path Caching with eXpiration,
  the paper's passive baseline.
- :class:`~repro.schemes.cup.CupScheme` — Controlled Update Propagation
  (Roussopoulos & Baker): hop-by-hop pushes along the search tree.
- :class:`~repro.schemes.dup.DupScheme` — the paper's contribution: pushes
  along the dynamic update propagation tree, skipping uninterested
  intermediate nodes.
- :class:`~repro.schemes.nocache.NoCacheScheme` — no caching at all
  (analytical lower baseline for ablations).
- :class:`~repro.schemes.pushall.PushAllScheme` — SCRIBE-style full-tree
  dissemination every cycle (upper push-cost extreme for ablations).
"""

from repro.schemes.base import PathCachingScheme, Scheme
from repro.schemes.cup import CupScheme
from repro.schemes.cup_ideal import CupIdealScheme
from repro.schemes.dup import DupScheme
from repro.schemes.dup_invalidate import DupInvalidateScheme
from repro.schemes.nocache import NoCacheScheme
from repro.schemes.pcx import PcxScheme
from repro.schemes.pushall import PushAllScheme
from repro.schemes.registry import available_schemes, make_scheme

__all__ = [
    "CupIdealScheme",
    "CupScheme",
    "DupInvalidateScheme",
    "DupScheme",
    "NoCacheScheme",
    "PathCachingScheme",
    "PcxScheme",
    "PushAllScheme",
    "Scheme",
    "available_schemes",
    "make_scheme",
]
