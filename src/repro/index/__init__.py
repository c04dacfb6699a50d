"""Index substrate: versioned (key, value) entries, TTL caches, authority.

An *index* maps a data key to the node(s) hosting the data.  The node
responsible for a key (its hash owner) is the key's **authority node**;
it holds the authoritative copy, rotates versions, and — under the push
schemes — disseminates new versions one minute before the previous ones
expire (paper Section IV).  Cached copies follow the weak-consistency TTL
model: a copy of version ``v`` is valid until ``issued_at(v) + TTL``
regardless of where it is cached.  :class:`KeepAliveTracker` is the
authority's side of Section II-A's host keep-alives.
"""

from repro.index.authority import Authority
from repro.index.cache import CacheStats, IndexCache
from repro.index.entry import IndexVersion
from repro.index.keepalive import KeepAliveTracker

__all__ = [
    "Authority",
    "CacheStats",
    "IndexCache",
    "IndexVersion",
    "KeepAliveTracker",
]
