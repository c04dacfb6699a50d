"""Push-all baseline: SCRIBE-style full-tree dissemination every cycle.

Every new index version floods the whole search tree hop-by-hop, so every
node always holds a valid copy (near-zero latency) at maximal push cost —
the opposite extreme to PCX.  Used by the ablation benchmarks to bracket
CUP and DUP between the two extremes; the paper's related-work section
contrasts DUP with exactly this kind of multicast (SCRIBE forwards
"hop-by-hop to the subscriber" where DUP skips intermediates).
"""

from __future__ import annotations

from repro.net.message import PushMessage
from repro.schemes.base import PathCachingScheme

NodeId = int


class PushAllScheme(PathCachingScheme):
    """Unconditional full-tree push of every new version."""

    name = "push-all"

    def on_new_version(self, version) -> None:
        root = self.sim.tree.root
        self._fan_out(root, self.sim.tree.children(root), version)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        sim = self.sim
        sim.copies.put(message.version, self._env._now, node)
        self._fan_out(node, sim.tree.children(node), message.version)
