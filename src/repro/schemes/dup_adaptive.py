"""``dup-adaptive``: DUP with per-node self-tuning interest thresholds.

The paper fixes the interest threshold ``c`` globally (Section III-B);
this variant gives every node an
:class:`~repro.core.interest.AdaptiveInterestPolicy` that tunes its own
threshold from the query rate it actually observes, clamped to
``[floor, ceiling]`` of an :class:`~repro.core.interest.AdaptivePlan`.  Hot nodes raise their
bar, cold nodes lower it — the local-thresholding idea from the DHT
literature applied to DUP's subscription decision.

Everything else — subscriber lists, pushes, repair — is inherited
unchanged; the scheme merely supplies ``AdaptivePlan()`` through the
``interest_policy_override`` attribute that
:meth:`~repro.schemes.base.PathCachingScheme.interest` hands to
:func:`~repro.core.interest.interest_table`; a config whose
``interest_policy`` is an ``AdaptivePlan`` of its own keeps it.  With
``floor == ceiling == threshold_c`` the run is bit-identical to plain
``dup`` (proven by ``tests/test_differential.py``).
"""

from __future__ import annotations

from repro.core.interest import AdaptivePlan
from repro.schemes.dup import DupScheme


class DupAdaptiveScheme(DupScheme):
    """DUP with the adaptive interest policy forced on."""

    name = "dup-adaptive"

    #: This scheme always uses the adaptive policy: the config's own
    #: ``AdaptivePlan`` if it has one, the default bounds otherwise.
    interest_policy_override = AdaptivePlan()
