"""Messaging substrate: typed messages, per-hop transport, cost accounting.

The paper's cost metric is "the total number of hops that the query related
messages such as requests, replies and updates traveled in the network
divided by the total number of queries", *including* the interest /
tree-maintenance traffic of CUP and DUP.  Every hop therefore flows through
:class:`~repro.net.transport.Transport`, which charges it to a
:class:`~repro.net.message.Category` in the shared cost ledger.

Resilience lives here too: :class:`~repro.net.faults.FaultInjector`
perturbs the transport per a :class:`~repro.net.faults.FaultPlan`
(message loss, duplication, delay jitter, silent failures), and
:class:`~repro.net.reliable.ReliableChannel` layers acks, retransmission
with exponential backoff, and duplicate suppression on top for the
traffic that cannot tolerate loss.
"""

from repro.net.faults import FaultInjector, FaultPlan
from repro.net.message import (
    AckMessage,
    Category,
    ControlMessage,
    CupRegister,
    CupUnregister,
    LeaseRefresh,
    Message,
    PushMessage,
    QueryMessage,
    ReplyMessage,
    Subscribe,
    Substitute,
    Unsubscribe,
)
from repro.net.reliable import ReliableChannel
from repro.net.transport import Transport, TransportEvent

__all__ = [
    "AckMessage",
    "Category",
    "ControlMessage",
    "CupRegister",
    "CupUnregister",
    "FaultInjector",
    "FaultPlan",
    "LeaseRefresh",
    "Message",
    "PushMessage",
    "QueryMessage",
    "ReliableChannel",
    "ReplyMessage",
    "Subscribe",
    "Substitute",
    "Transport",
    "TransportEvent",
    "Unsubscribe",
]
