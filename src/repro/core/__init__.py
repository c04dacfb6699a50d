"""The paper's contribution: the DUP dynamic update propagation tree.

This package implements Section III of the paper:

- :mod:`repro.core.interest` — the interest measurement policy ("a node is
  interested iff it received more than ``c`` queries in the last TTL
  interval"), plus an EWMA variant for the ablation study.
- :mod:`repro.core.subscriber_list` — the per-node subscriber list (at most
  one entry per downstream branch, plus the node itself).
- :mod:`repro.core.protocol` — the Figure-3 state machine:
  subscribe / unsubscribe / substitute processing and push-target
  computation.
- :mod:`repro.core.maintenance` — Section III-C: node arrival, departure,
  and the five failure cases.
- :mod:`repro.core.tree_state` — the one invariant oracle: every
  violation of the global DUP state, for the tests, the ledger driver
  and the runtime auditor.
"""

from repro.core.interest import (
    EwmaInterestPolicy,
    InterestPolicy,
    WindowInterestPolicy,
)
from repro.core.leases import LeaseTable
from repro.core.protocol import DupProtocol, StepResult
from repro.core.subscriber_list import SubscriberList
from repro.core.tree_state import check_dup_invariants, violations

__all__ = [
    "DupProtocol",
    "EwmaInterestPolicy",
    "InterestPolicy",
    "LeaseTable",
    "StepResult",
    "SubscriberList",
    "WindowInterestPolicy",
    "check_dup_invariants",
    "violations",
]
