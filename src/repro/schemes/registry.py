"""Scheme factory keyed by registry name."""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.schemes.base import Scheme
from repro.schemes.cup import CupScheme
from repro.schemes.cup_ideal import CupIdealScheme
from repro.schemes.dup import DupScheme
from repro.schemes.dup_adaptive import DupAdaptiveScheme
from repro.schemes.dup_balanced import DupBalancedScheme
from repro.schemes.dup_invalidate import DupInvalidateScheme
from repro.schemes.nocache import NoCacheScheme
from repro.schemes.pcx import PcxScheme
from repro.schemes.pushall import PushAllScheme

_REGISTRY: dict[str, Callable[[], Scheme]] = {
    PcxScheme.name: PcxScheme,
    CupScheme.name: CupScheme,
    CupIdealScheme.name: CupIdealScheme,
    DupScheme.name: DupScheme,
    DupAdaptiveScheme.name: DupAdaptiveScheme,
    DupBalancedScheme.name: DupBalancedScheme,
    DupInvalidateScheme.name: DupInvalidateScheme,
    NoCacheScheme.name: NoCacheScheme,
    PushAllScheme.name: PushAllScheme,
}


def available_schemes() -> tuple[str, ...]:
    """Names of all registered schemes."""
    return tuple(sorted(_REGISTRY))


def make_scheme(name: str) -> Scheme:
    """Instantiate the scheme registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None
    return factory()
