"""Two constants kept only for ``benchmarks/ledger``.

Every ledger child imports this module and records ``ENABLED`` and
``BATCHED`` as ``host.fastpath``.  The kernel has one run loop and no
switches (:mod:`repro.sim.core`); nothing in ``src/`` reads these.  The
ledger re-pin (ROADMAP item 1) deletes this file.
"""

ENABLED = True
BATCHED = True
