"""The scale shard's allocation fence: objects counted, no clock read.

The 1024-node DUP shard of ``tests/test_scale_hop.py`` is built and run
with the cyclic collector off inside each window, and the collector's
own list of tracked objects is counted:

- the constructor allocates at most ``OBJECTS_PER_KEY`` tracked objects
  per key (the growth from the 16-key shard to the same config cut at
  32 keys, so the shard's fixed part is not charged to its keys): the
  key's tree and the tree's bound ``parent``, host, copy table and its
  stats, scheme, protocol and maintenance engine.  With the handler
  table, the host callbacks and the query counter bound per key it
  allocated 28 per key;
- at the horizon of the 16-key shard, after ``run()`` has done all its
  work but before it frees the shard, no per-(node, key) object is
  alive: interest rings and copy timers live in flat per-key tables.
  Besides the DUP subscriber lists (the paper's ``S_list``, one per node
  on a key's DUP tree or virtual paths) the run grew by at most
  ``RUN_OBJECTS_PER_KEY`` objects per key, while thousands of (node,
  key) pairs hold interest or copy state.  With a
  ``WindowInterestPolicy``, its ring ``list`` and a ``CachedCopy`` per
  pair it grew by about three objects per pair.
"""

import gc
from collections import Counter
from contextlib import contextmanager

from repro.core.interest import WindowInterestPolicy
from repro.core.subscriber_list import SubscriberList
from repro.engine.multikey import MultiKeyScaleSimulation
from repro.index.cache import CachedCopy
from tests.test_scale_hop import _shard

#: Tracked objects a shard constructor may allocate per key.
OBJECTS_PER_KEY = 10

#: Tracked objects per key a run may add besides the subscriber lists:
#: the key's authority, its version and refresh process (process,
#: generator, timeout, heap entry, two bound methods), the interest
#: table with its array, head list and free list, the protocol's and
#: the copy table's node-keyed dicts, and the shard's query source and
#: streams.
RUN_OBJECTS_PER_KEY = 24


@contextmanager
def _collector_off():
    """A window free of earlier garbage that the collector stays out of."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _constructor_growth(num_keys: int) -> int:
    """Tracked objects a warm constructor of ``num_keys`` keys leaves."""
    config = _shard().config
    MultiKeyScaleSimulation(config, num_keys)  # imports, memoised ring
    with _collector_off():
        before = len(gc.get_objects())
        shard = MultiKeyScaleSimulation(config, num_keys)
        grown = len(gc.get_objects()) - before
    assert len(shard.schemes) == num_keys
    return grown


def test_constructor_allocates_per_key():
    per_key = (_constructor_growth(32) - _constructor_growth(16)) / 16
    assert per_key <= OBJECTS_PER_KEY, per_key


def test_a_finished_run_holds_no_object_per_node_and_key():
    sim = _shard()
    num_keys = sim.num_keys
    horizon = {}

    def read():
        objects = gc.get_objects()
        horizon["tracked"] = len(objects)
        horizon["types"] = Counter(map(type, objects))

    sim.env.defer(sim.config.duration, read)
    with _collector_off():
        before = len(gc.get_objects())
        result = sim.run()
    types = horizon["types"]
    assert types[WindowInterestPolicy] == types[CachedCopy] == 0
    # Each subscriber list holds its items in a list of its own.
    grown = horizon["tracked"] - before - 2 * types[SubscriberList]
    assert grown <= RUN_OBJECTS_PER_KEY * num_keys, grown / num_keys
    pairs = result.extras["state_slots"]
    assert pairs > 4 * RUN_OBJECTS_PER_KEY * num_keys, pairs
