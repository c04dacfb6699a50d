"""DUP-invalidate: pushing invalidations instead of updated indices.

The paper's design argument (Section I): "because the index size is very
small, to do cache invalidation, the updated index should be sent so that
caching nodes need not request for the updated index again."  This scheme
is the road not taken — identical DUP machinery (interest, subscriptions,
dynamic tree, direct pushes), but the push carries only an *invalidation*
marker: the subscriber drops its cached copy and must re-fetch on its
next query.

It provides strong-consistency semantics for subscribers (they can never
serve a copy older than the last invalidation) at the cost the paper
predicts: every subscriber pays a fetch round trip per cycle that
DUP-update avoids.  The ``ablation-invalidate`` benchmark quantifies the
gap.
"""

from __future__ import annotations

from repro.schemes.dup import DupScheme

NodeId = int


class _InvalidationMarker:
    """Sentinel payload carried by invalidation pushes."""

    __slots__ = ("version_number",)

    def __init__(self, version_number: int):
        self.version_number = version_number

    def __repr__(self) -> str:
        return f"Invalidate(v{self.version_number})"


class DupInvalidateScheme(DupScheme):
    """DUP with invalidation pushes instead of update pushes."""

    name = "dup-invalidate"

    def on_new_version(self, version) -> None:
        super().on_new_version(_InvalidationMarker(version.version))

    def _store_push(self, node: NodeId, version) -> None:
        if isinstance(version, _InvalidationMarker):
            # Drop the local copy; the next query will re-fetch.
            self.sim.copies.invalidate(node)
        else:
            # Immediate push of a concrete version (explicit-subscribe
            # bootstrap) still delivers data.
            super()._store_push(node, version)
