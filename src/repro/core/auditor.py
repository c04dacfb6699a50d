"""Runtime anti-entropy auditor for the DUP tree invariants.

Under partitions, silent failures, and authority failover the DUP tree
invariants can be violated *at runtime* — a subscribe lost at the cut
leaves a dangling entry, tree surgery during a partition strands a
subscriber outside its pusher's branch, a failover races an in-flight
substitute into a duplicate pusher.  This module turns the one invariant
oracle, :func:`repro.core.tree_state.violations`, into a periodic
**audit-and-repair** pass:

- **detect** — each :meth:`ConsistencyAuditor.sweep` asks the oracle for
  the violations of the live protocol state and keeps the seven kinds it
  can repair (:data:`KINDS`).  Because control payloads are in flight
  between sweeps (a node is briefly "subscribed but unreachable" while
  its subscribe climbs the tree), a finding only *confirms* when the same
  violation persists across two consecutive sweeps — a single sighting is
  a suspicion, not a divergence;
- **repair** — each confirmed violation is answered with the protocol's
  own primitives: a local ``unsubscribe`` step (whose upstream
  continuations travel as real charged control messages) to excise bad
  state, and a ``refresh subscribe`` re-walk (Section III-C's repair
  flow) to rebuild a legitimate subscriber's update supply;
- **measure** — the auditor records the *divergence window* (how long
  the state stayed dirty, from the first confirming sweep to the next
  clean one) and, for disruptions announced via :meth:`note_disruption`
  (partition heals, failovers), the *time to reconvergence* from the
  disruption to the first clean sweep after it.

The oracle's other kinds (``broken-path``, ``unplaced-state``) have no
repair here, so a sweep neither counts nor answers them.

The auditor is an omniscient observer but a **local repairer**: it reads
global state (as the test oracles do), yet every repair is expressed as
a control flow a real node could emit, routed through the same
functioning-gated emit path the churn maintenance uses — a silently
failed node never originates repair traffic.  With ``audit_interval``
unset the auditor is never constructed and runs are bit-identical to
builds without it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.protocol import DupProtocol
from repro.core.tree_state import Violation, violations
from repro.net.message import RefreshSubscribe, Unsubscribe
from repro.topology.tree import SearchTree

NodeId = int
EmitUpstream = Callable[[NodeId, object], None]

#: How a confirmed violation of each repairable kind is answered, in the
#: oracle's report order (which is also the repair order).
_REPAIRS: dict[str, Callable[["ConsistencyAuditor", Violation], None]] = {
    "dangling-entry": lambda a, v: a._excise(v.node, v.subject, rewalk=False),
    "stray-entry": lambda a, v: a._excise(v.node, v.subject, rewalk=True),
    "branch-conflict": lambda a, v: a._excise(v.node, v.subject, rewalk=True),
    "push-cycle": lambda a, v: a._excise(v.node, v.subject, rewalk=True),
    "split-brain": lambda a, v: a._excise(v.subject, v.node, rewalk=False),
    "dead-end": lambda a, v: a._cut_dead_end(v.node, v.pushers),
    "orphan": lambda a, v: a._do_rewalk(v.node),
}

#: Violation kinds a sweep repairs and counts, in check order.
KINDS = tuple(_REPAIRS)


class ConsistencyAuditor:
    """Periodic detect-and-repair pass over the DUP protocol state.

    Parameters
    ----------
    protocol:
        The live protocol state machine.
    tree:
        The index search tree (read-only here).
    clock:
        Returns the current simulation time (for the histograms).
    emit:
        ``emit(from_node, payload)`` sends a control payload from
        ``from_node`` toward its parent as a real charged message; wire
        this to the scheme's maintenance emit path so the
        functioning-gate applies.
    confirm_sweeps:
        How many consecutive sweeps a finding must recur in before it
        confirms (default 2; 1 disables the suspicion stage — useful in
        synchronous tests where no messages are ever in flight).
    recorder:
        Optional :class:`repro.flightrec.FlightRecorder`; every
        confirmed violation emits an ``audit-detect`` event and every
        executed repair an ``audit-repair`` event (exactly one per
        confirmed violation, so the event count always equals
        :attr:`repairs`).
    """

    def __init__(
        self,
        protocol: DupProtocol,
        tree: SearchTree,
        clock: Callable[[], float],
        emit: EmitUpstream,
        confirm_sweeps: int = 2,
        recorder=None,
    ):
        self._protocol = protocol
        self._tree = tree
        self._clock = clock
        self._emit = emit
        self._recorder = recorder
        self._confirm_sweeps = max(1, confirm_sweeps)
        self.sweeps = 0
        self.clean_sweeps = 0
        self.repairs = 0
        self.violations_by_kind: dict[str, int] = {k: 0 for k in KINDS}
        #: Closed divergence windows (seconds dirty), one per episode.
        self.divergence_windows: list[float] = []
        #: Per announced disruption: seconds until the first clean sweep.
        self.reconvergence_times: list[float] = []
        self._dirty_since: Optional[float] = None
        self._open_disruptions: list[tuple[str, float]] = []
        #: How many consecutive sweeps each suspicion has been seen in.
        self._suspicions: dict[tuple, int] = {}
        self.last_violations: tuple[Violation, ...] = ()

    # -- disruption hooks ---------------------------------------------------
    def note_disruption(self, kind: str) -> None:
        """Announce a disruptive event (partition heal, failover).

        The time from here to the first *clean* sweep is recorded as
        that disruption's reconvergence time.
        """
        self._open_disruptions.append((kind, self._clock()))

    @property
    def total_violations(self) -> int:
        """All confirmed violations across all sweeps."""
        return sum(self.violations_by_kind.values())

    # -- the sweep ----------------------------------------------------------
    def sweep(self) -> list[Violation]:
        """Run all checks, repair confirmed findings, update metrics.

        Returns the *confirmed* violations (those seen in
        ``confirm_sweeps`` consecutive sweeps including this one);
        fresh suspicions wait for the next sweep.
        """
        self.sweeps += 1
        found = [
            v
            for v in violations(self._protocol, self._tree)
            if v.kind in _REPAIRS
        ]
        streaks = {v.key: self._suspicions.get(v.key, 0) + 1 for v in found}
        self._suspicions = streaks
        confirmed: list[Violation] = []
        for violation in found:
            if streaks[violation.key] < self._confirm_sweeps:
                continue
            confirmed.append(violation)
            self.violations_by_kind[violation.kind] += 1
            if self._recorder is not None:
                self._recorder.record(
                    "audit-detect",
                    node=violation.node,
                    subject=violation.subject,
                    detail=f"{violation.kind}: {violation.detail}",
                )
            self.repairs += 1
            _REPAIRS[violation.kind](self, violation)
            if self._recorder is not None:
                self._recorder.record(
                    "audit-repair",
                    node=violation.node,
                    subject=violation.subject,
                    detail=violation.kind,
                )
            # Repaired: the streak restarts if the finding ever recurs.
            self._suspicions.pop(violation.key, None)
        self.last_violations = tuple(confirmed)

        now = self._clock()
        if confirmed:
            if self._dirty_since is None:
                self._dirty_since = now
        else:
            self.clean_sweeps += 1
            if self._dirty_since is not None:
                self.divergence_windows.append(now - self._dirty_since)
                self._dirty_since = None
            for _, since in self._open_disruptions:
                self.reconvergence_times.append(now - since)
            self._open_disruptions.clear()
        return confirmed

    # -- repairs ------------------------------------------------------------
    def _stranded(self, member: NodeId) -> Optional[NodeId]:
        """The live party whose update supply hangs off ``member``.

        Follows the advertisement chain (a relay advertises its sole
        entry) until it reaches a node that supplies itself — one that
        is subscribed or a DUP-tree interior — and returns it; ``None``
        when the chain dies out (nothing real was stranded).
        """
        protocol = self._protocol
        current: Optional[NodeId] = member
        seen: set[NodeId] = set()
        while current is not None and current not in seen:
            if current in self._tree and (
                protocol.is_subscribed(current)
                or protocol.in_dup_tree(current)
            ):
                return current
            seen.add(current)
            current = protocol.advertisement(current)
        return None

    def _excise(self, node: NodeId, member: NodeId, rewalk: bool) -> None:
        """Drop ``member`` from ``node``'s list.

        The unsubscribe is processed at ``node`` itself (the auditor's
        finding *is* the node's local knowledge) and its continuations
        travel upstream as real messages.  With ``rewalk`` the live
        subscriber stranded behind the excised entry (if any) then
        re-establishes its virtual path.
        """
        result = self._protocol.step(node, Unsubscribe(member))
        for payload in result.upstream:
            self._emit(node, payload)
        if rewalk:
            stranded = self._stranded(member)
            if stranded is not None:
                self._do_rewalk(stranded)

    def _cut_dead_end(
        self, target: NodeId, sources: tuple[NodeId, ...]
    ) -> None:
        """Remove a dead-end push leaf from all its pushers."""
        for sender in sources:
            result = self._protocol.step(sender, Unsubscribe(target))
            for payload in result.upstream:
                self._emit(sender, payload)
        # The dead end may still relay for a legitimate subscriber:
        # re-walk whoever is stranded behind it so that path survives
        # the cut.
        stranded = self._stranded(target)
        if stranded is not None and stranded != target:
            self._do_rewalk(stranded)

    def _do_rewalk(self, node: NodeId) -> None:
        """Re-establish ``node``'s update supply (Section III-C repair)."""
        self._emit(node, RefreshSubscribe(node))

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Aggregate audit statistics for result extras."""
        out: dict[str, object] = {
            "audit_sweeps": self.sweeps,
            "audit_clean_sweeps": self.clean_sweeps,
            "audit_violations": self.total_violations,
            "audit_repairs": self.repairs,
        }
        for kind in KINDS:
            count = self.violations_by_kind[kind]
            if count:
                out[f"audit_{kind.replace('-', '_')}"] = count
        if self.divergence_windows:
            windows = sorted(self.divergence_windows)
            out["audit_divergence_max"] = windows[-1]
            out["audit_divergence_p50"] = windows[len(windows) // 2]
        if self.reconvergence_times:
            times = sorted(self.reconvergence_times)
            out["audit_reconvergence_max"] = times[-1]
            out["audit_reconvergence_p50"] = times[len(times) // 2]
        return out
