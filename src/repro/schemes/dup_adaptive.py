"""``dup-adaptive``: DUP with per-node self-tuning interest thresholds.

The paper fixes the interest threshold ``c`` globally (Section III-B);
this variant gives every node an
:class:`~repro.core.interest.AdaptiveInterestPolicy` that tunes its own
threshold from the query rate it actually observes, clamped to
``[threshold_floor, threshold_ceiling]`` (see
:class:`~repro.engine.config.SimulationConfig`).  Hot nodes raise their
bar, cold nodes lower it — the local-thresholding idea from the DHT
literature applied to DUP's subscription decision.

Everything else — subscriber lists, pushes, repair — is inherited
unchanged; the scheme merely forces the policy kind through the
``interest_policy_override`` attribute that
:meth:`~repro.schemes.base.PathCachingScheme.tracker` hands to
:func:`~repro.core.interest.interest_policy_factory`.  With
``threshold_floor == threshold_ceiling == threshold_c`` the run is
bit-identical to plain ``dup`` (proven by ``tests/test_differential.py``).
"""

from __future__ import annotations

from repro.schemes.dup import DupScheme


class DupAdaptiveScheme(DupScheme):
    """DUP with the adaptive interest policy forced on."""

    name = "dup-adaptive"

    #: This scheme always uses the adaptive policy, whatever
    #: ``config.interest_policy`` says.
    interest_policy_override = "adaptive"
