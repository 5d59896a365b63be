//! Sharded event storage for the serving event loop.
//!
//! The discrete-event loop in [`crate::sim`] is defined by one property:
//! events are processed in global `(time, sequence)` order, so a run is
//! bitwise replayable. This module shards the **storage** of that event
//! set without touching the *order*: a [`ShardedQueue`] keeps one binary
//! heap per shard (instances, request ids, and request classes are
//! partitioned across shards by a [`ShardLayout`]), and every pop is a
//! deterministic k-way merge — the minimum of the shard heads under the
//! same total order the serial loop uses. Because sequence numbers are
//! globally unique, the merge never has to break a tie arbitrarily: the
//! pop sequence of a sharded queue is *identical* to a single heap's for
//! any shard count, which is what keeps reports, traces, and goldens
//! byte-identical at any `STAR_SERVE_SHARDS` (the differential suite in
//! `tests/shard_equivalence.rs` pins this).
//!
//! Open-loop arrivals never enter these heaps: the event loop reads them
//! from the materialized arrival trace through a cursor and merges its
//! head with [`ShardedQueue::peek`] under the same order. The heaps hold
//! only the events the loop creates as it runs (instance-free
//! completions, window timers, scale checks, closed-loop arrivals), so
//! they stay a few entries deep whatever the run's length.
//!
//! # Epochs and barriers
//!
//! Each pop is a lockstep barrier: all shards synchronize on the global
//! minimum before the next event executes. A coarser epoch (letting a
//! shard run ahead between arrival boundaries) cannot preserve bitwise
//! replay here, because shards couple through shared serving state on
//! *every* event — the idle set (an `InstanceFree` on one shard can
//! dispatch work queued by another), the admission bound (`queued_total`
//! gates rejects globally), and the single event-sequence counter. The
//! determinism argument in DESIGN.md spells this out. Sharding is
//! therefore pure storage: it buys nothing in parallelism, and whether
//! it earns its keep is a measured question (`serve.sharded_ratio`).
//!
//! The module also houses [`ReadyIndex`], the dispatcher's ready-queue
//! index that replaces the per-class linear queue scan the self-profiler
//! flagged in `dispatch_scans`: class readiness is maintained
//! incrementally at the points where it can change, in one dense slot per
//! class, so each dispatch iteration reads the slots instead of sweeping
//! every class queue.

use crate::request::RequestClass;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Environment variable selecting the event-queue shard count for the
/// `simulate*` entry points (`1` = the serial single-heap layout).
/// Explicit shard counts passed to [`crate::sim::simulate_sharded`]
/// override it.
pub const SHARDS_ENV: &str = "STAR_SERVE_SHARDS";

/// Upper bound on the shard count (more shards than live events is pure
/// merge overhead; 64 covers fleet-of-hundreds sweeps comfortably).
pub const MAX_SHARDS: usize = 64;

/// The shard count requested via [`SHARDS_ENV`], clamped to
/// `1..=MAX_SHARDS`. Unset, empty, or unparseable values mean 1 — the
/// serial layout — so existing workflows are untouched by default.
pub fn shards_from_env() -> usize {
    match std::env::var(SHARDS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_SHARDS),
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Deterministic partition of the simulation's entities across shards.
///
/// Instances, request ids, and request classes each map to a shard by
/// residue, so an event's shard is a pure function of the event itself —
/// independent of processing history.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    shards: usize,
    class_shards: BTreeMap<RequestClass, usize>,
}

impl ShardLayout {
    /// A layout over `shards` shards (clamped to `1..=MAX_SHARDS`) for
    /// the given registered classes. Classes map to shards by their rank
    /// in class order, so the mapping is stable across runs.
    pub fn new(shards: usize, classes: &[RequestClass]) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let mut sorted: Vec<RequestClass> = classes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let class_shards =
            sorted.iter().enumerate().map(|(i, &c)| (c, i % shards)).collect::<BTreeMap<_, _>>();
        ShardLayout { shards, class_shards }
    }

    /// Number of shards in the layout.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard owning instance `instance` (and its `InstanceFree` events).
    pub fn instance_shard(&self, instance: usize) -> usize {
        instance % self.shards
    }

    /// Shard owning request `id` (and its `Arrive` event).
    pub fn request_shard(&self, id: u64) -> usize {
        (id % self.shards as u64) as usize
    }

    /// Shard owning `class` (and its `WindowExpire` events).
    ///
    /// # Panics
    ///
    /// Panics if `class` was not registered at construction.
    pub fn class_shard(&self, class: &RequestClass) -> usize {
        *self.class_shards.get(class).expect("class registered with the layout")
    }
}

/// Per-shard binary heaps with a deterministic min-of-heads pop.
///
/// Items are pushed to the shard the caller names and popped in the
/// global `Ord` order: each [`ShardedQueue::pop`] compares the shard
/// heads and takes the strict minimum (ties — impossible for the event
/// loop, whose sequence numbers are unique — resolve to the lowest shard
/// index). With one shard this *is* a plain binary heap; with `k` shards
/// the pop sequence is identical, which the unit and property tests below
/// pin against a reference heap.
#[derive(Debug, Clone)]
pub struct ShardedQueue<T: Ord> {
    heaps: Vec<BinaryHeap<Reverse<T>>>,
    len: usize,
    pushes: Vec<u64>,
    pops: Vec<u64>,
}

impl<T: Ord> ShardedQueue<T> {
    /// An empty queue over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded queue needs at least one shard");
        ShardedQueue {
            heaps: (0..shards).map(|_| BinaryHeap::new()).collect(),
            len: 0,
            pushes: vec![0; shards],
            pops: vec![0; shards],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.heaps.len()
    }

    /// Total items across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no shard holds an item.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items currently in shard `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.heaps[shard].len()
    }

    /// Cumulative pushes per shard (conservation: after a full drain,
    /// `shard_pushes()[s] == shard_pops()[s]` for every shard).
    pub fn shard_pushes(&self) -> &[u64] {
        &self.pushes
    }

    /// Cumulative pops per shard.
    pub fn shard_pops(&self) -> &[u64] {
        &self.pops
    }

    /// Pushes `item` onto shard `shard`.
    pub fn push(&mut self, shard: usize, item: T) {
        self.heaps[shard].push(Reverse(item));
        self.pushes[shard] += 1;
        self.len += 1;
    }

    /// The globally smallest item, without removing it (ties resolve as in
    /// [`ShardedQueue::pop`]).
    pub fn peek(&self) -> Option<&T> {
        self.min_head().map(|(_, head)| head)
    }

    /// The shard holding the globally smallest head, and that head.
    fn min_head(&self) -> Option<(usize, &T)> {
        let mut best: Option<(usize, &T)> = None;
        for (i, heap) in self.heaps.iter().enumerate() {
            if let Some(Reverse(head)) = heap.peek() {
                if best.as_ref().is_none_or(|&(_, b)| head < b) {
                    best = Some((i, head));
                }
            }
        }
        best
    }

    /// Removes and returns the globally smallest item along with the
    /// shard it lived on, or `None` when the queue is empty. Ties on the
    /// full `Ord` key resolve to the lowest shard index — the explicit,
    /// tested tie-break of the cross-shard merge.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let shard = self.min_head()?.0;
        let Reverse(item) = self.heaps[shard].pop().expect("peeked head exists");
        self.pops[shard] += 1;
        self.len -= 1;
        Some((shard, item))
    }
}

/// Incremental index of dispatch-ready request classes.
///
/// The serial dispatcher rescanned every class queue on each iteration to
/// find the ready class with the longest-waiting head and to arm batch
/// windows for the rest — the `dispatch_scans ≈ 1.1–1.3× events` cost the
/// self-profiler measured. This index maintains the same information
/// incrementally: a class is **ready** (its oldest request is
/// dispatchable now) or **flagged** (queued but waiting on its batch
/// window), and transitions happen only where readiness can actually
/// change — enqueue, head change after batch formation, and the
/// window-arming step of a dispatch iteration. Readiness is monotone
/// between head changes (queue length only grows, time only advances), so
/// evaluating it at those points reproduces the serial scan's decisions
/// — and therefore its event stream — exactly.
///
/// Classes are addressed by their rank in class order, and the index is
/// one [`Slot`] per rank. Ready classes are ordered by their key — the
/// dequeue policy's `(value bits, head request id)` — with ties (which
/// unique ids rule out) going to the lower rank; flagged classes are
/// swept in rank order. A class mix holds a handful of classes, so
/// reading every slot costs less than keeping ordered sets, which would
/// allocate and free a node on almost every arrival.
#[derive(Debug)]
pub(crate) struct ReadyIndex {
    slots: Vec<Slot>,
}

/// One class's state in the [`ReadyIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Empty queue: neither ready nor flagged.
    Idle,
    /// Dispatchable now, under this selection key.
    Ready((u64, u64)),
    /// Queued, waiting on its batch window.
    Flagged,
}

impl ReadyIndex {
    /// An empty index over `classes` class ranks.
    pub(crate) fn new(classes: usize) -> Self {
        ReadyIndex { slots: vec![Slot::Idle; classes] }
    }

    /// The selection key of a queue head: `(arrival bits, id)`. Valid
    /// because event times are non-negative and finite, so their IEEE-754
    /// bit patterns order identically to their values.
    pub(crate) fn ready_key(arrive_ns: f64, id: u64) -> (u64, u64) {
        debug_assert!(
            arrive_ns.is_finite() && arrive_ns >= 0.0,
            "arrival times are non-negative finite"
        );
        (arrive_ns.to_bits(), id)
    }

    /// Marks class `rank` ready under `key`, replacing any previous state.
    pub(crate) fn set_ready(&mut self, rank: usize, key: (u64, u64)) {
        self.slots[rank] = Slot::Ready(key);
    }

    /// Marks class `rank` flagged (queued, not yet dispatchable),
    /// replacing any previous state.
    pub(crate) fn set_flagged(&mut self, rank: usize) {
        self.slots[rank] = Slot::Flagged;
    }

    /// Marks class `rank` neither ready nor flagged.
    pub(crate) fn clear(&mut self, rank: usize) {
        self.slots[rank] = Slot::Idle;
    }

    /// The ready class with the smallest key (ties to the lower rank).
    pub(crate) fn best(&self) -> Option<usize> {
        let mut best: Option<(usize, (u64, u64))> = None;
        for (rank, slot) in self.slots.iter().enumerate() {
            if let Slot::Ready(key) = *slot {
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((rank, key));
                }
            }
        }
        best.map(|(rank, _)| rank)
    }

    /// First flagged class in rank order (cursor start for the arming
    /// sweep; the sweep may promote the cursor's class without
    /// invalidating [`ReadyIndex::next_flagged_after`]).
    pub(crate) fn first_flagged(&self) -> Option<usize> {
        self.flagged_from(0)
    }

    /// The flagged class after `rank` in rank order.
    pub(crate) fn next_flagged_after(&self, rank: usize) -> Option<usize> {
        self.flagged_from(rank + 1)
    }

    fn flagged_from(&self, start: usize) -> Option<usize> {
        (start..self.slots.len()).find(|&r| self.slots[r] == Slot::Flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::ops::Bound::{Excluded, Unbounded};

    fn class(seq: usize) -> RequestClass {
        RequestClass::new(ModelKind::Tiny, seq)
    }

    #[test]
    fn env_parsing_defaults_and_clamps() {
        // The parser itself (the env var is process-global, so the
        // default path is exercised by whatever CI leg runs this).
        let n = shards_from_env();
        assert!((1..=MAX_SHARDS).contains(&n));
    }

    #[test]
    fn layout_partitions_by_residue() {
        let classes = [class(16), class(32), class(64)];
        let layout = ShardLayout::new(2, &classes);
        assert_eq!(layout.shards(), 2);
        assert_eq!(layout.instance_shard(0), 0);
        assert_eq!(layout.instance_shard(5), 1);
        assert_eq!(layout.request_shard(7), 1);
        // Classes map by rank in class order: 16 -> 0, 32 -> 1, 64 -> 0.
        assert_eq!(layout.class_shard(&class(16)), 0);
        assert_eq!(layout.class_shard(&class(32)), 1);
        assert_eq!(layout.class_shard(&class(64)), 0);
        // Shard counts clamp instead of panicking.
        assert_eq!(ShardLayout::new(0, &classes).shards(), 1);
        assert_eq!(ShardLayout::new(1 << 20, &classes).shards(), MAX_SHARDS);
    }

    #[test]
    fn sharded_pop_matches_reference_heap() {
        // Differential: any push placement across shards pops in the same
        // order as one global heap.
        let items: Vec<(u64, u64)> =
            vec![(5, 0), (1, 1), (5, 2), (0, 3), (9, 4), (1, 5), (0, 6), (7, 7)];
        for shards in [1usize, 2, 3, 8] {
            let mut q = ShardedQueue::new(shards);
            for (i, &it) in items.iter().enumerate() {
                q.push(i % shards, it);
            }
            let mut reference = items.clone();
            reference.sort_unstable();
            let mut popped = Vec::new();
            while let Some((_, it)) = q.pop() {
                popped.push(it);
            }
            assert_eq!(popped, reference, "{shards} shards");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn equal_timestamp_tiebreak_vector() {
        // The explicit tie-break vector: four events at the same
        // timestamp, sequence numbers 0..4, deliberately scattered across
        // shards in reverse order. The merge must return them in
        // sequence order — the serial heap's tie-break — regardless of
        // which shard holds which.
        let t = 1_000u64;
        let mut q = ShardedQueue::new(3);
        q.push(2, (t, 0u64));
        q.push(0, (t, 3u64));
        q.push(1, (t, 1u64));
        q.push(0, (t, 2u64));
        // An earlier and a later event around the tie cluster.
        q.push(1, (t - 1, 4u64));
        q.push(2, (t + 1, 5u64));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|(_, it)| it)).collect();
        assert_eq!(
            order,
            vec![(t - 1, 4), (t, 0), (t, 1), (t, 2), (t, 3), (t + 1, 5)],
            "equal timestamps must pop in sequence order"
        );
    }

    #[test]
    fn identical_items_tiebreak_to_lowest_shard() {
        // Fully identical keys (never produced by the event loop) resolve
        // to the lowest shard index — pinned so the merge stays total.
        let mut q = ShardedQueue::new(4);
        q.push(3, (7u64, 7u64));
        q.push(1, (7u64, 7u64));
        q.push(2, (7u64, 7u64));
        let shards: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(s, _)| s)).collect();
        assert_eq!(shards, vec![1, 2, 3]);
    }

    #[test]
    fn per_shard_conservation_after_drain() {
        let mut q = ShardedQueue::new(4);
        for i in 0u64..100 {
            q.push((i % 4) as usize, (i * 37 % 91, i));
        }
        assert_eq!(q.shard_len(1), 25);
        while q.pop().is_some() {}
        for s in 0..4 {
            assert_eq!(q.shard_pushes()[s], q.shard_pops()[s], "shard {s}");
        }
        assert_eq!(q.shard_pushes().iter().sum::<u64>(), 100);
    }

    #[test]
    fn peek_is_the_next_pop() {
        let mut q = ShardedQueue::new(3);
        assert_eq!(q.peek(), None);
        for (i, it) in [(4u64, 0u64), (2, 1), (2, 2), (9, 3)].into_iter().enumerate() {
            q.push(i % 3, it);
        }
        while let Some(&head) = q.peek() {
            assert_eq!(q.pop().map(|(_, it)| it), Some(head));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn ready_index_orders_by_wait_then_id() {
        let mut idx = ReadyIndex::new(3);
        idx.set_ready(0, ReadyIndex::ready_key(200.0, 9));
        idx.set_ready(1, ReadyIndex::ready_key(100.0, 12));
        assert_eq!(idx.best(), Some(1), "older head wins");
        idx.set_ready(2, ReadyIndex::ready_key(100.0, 3));
        assert_eq!(idx.best(), Some(2), "equal arrival: lower id wins");
        idx.clear(2);
        assert_eq!(idx.best(), Some(1));
        // Re-marking replaces the old key (no stale entries linger).
        idx.set_ready(1, ReadyIndex::ready_key(500.0, 12));
        assert_eq!(idx.best(), Some(0));
    }

    #[test]
    fn ready_key_bits_order_like_values() {
        // Non-negative finite f64 bit patterns sort like the values —
        // the property the integer ready key relies on.
        let times = [0.0, 1e-9, 0.5, 1.0, 50_000.0, 5e7, 1e308];
        for w in times.windows(2) {
            assert!(
                ReadyIndex::ready_key(w[0], 0) < ReadyIndex::ready_key(w[1], 0),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn flagged_cursor_survives_promotion() {
        let mut idx = ReadyIndex::new(3);
        idx.set_flagged(0);
        idx.set_flagged(1);
        idx.set_flagged(2);
        let first = idx.first_flagged().expect("flagged");
        assert_eq!(first, 0);
        // Promoting the cursor's class must not derail the sweep.
        idx.set_ready(first, ReadyIndex::ready_key(1.0, 1));
        assert_eq!(idx.next_flagged_after(first), Some(1));
        assert_eq!(idx.next_flagged_after(1), Some(2));
        assert_eq!(idx.next_flagged_after(2), None);
        // A flagged class never appears ready and vice versa.
        assert_eq!(idx.best(), Some(0));
        idx.set_flagged(0);
        assert_eq!(idx.best(), None);
    }

    /// The ordered-set index the dense slots replaced, kept as the
    /// reference model: ready classes in a `BTreeSet` keyed by
    /// `(key, rank)`, a key map to find a class's entry, and a flagged
    /// set walked with range queries.
    #[derive(Default)]
    struct ReferenceIndex {
        ready: BTreeSet<(u64, u64, usize)>,
        keys: BTreeMap<usize, (u64, u64)>,
        flagged: BTreeSet<usize>,
    }

    impl ReferenceIndex {
        fn set_ready(&mut self, rank: usize, key: (u64, u64)) {
            self.clear(rank);
            self.keys.insert(rank, key);
            self.ready.insert((key.0, key.1, rank));
        }
        fn set_flagged(&mut self, rank: usize) {
            self.clear(rank);
            self.flagged.insert(rank);
        }
        fn clear(&mut self, rank: usize) {
            if let Some((t, id)) = self.keys.remove(&rank) {
                self.ready.remove(&(t, id, rank));
            }
            self.flagged.remove(&rank);
        }
        fn best(&self) -> Option<usize> {
            self.ready.first().map(|&(_, _, rank)| rank)
        }
        fn first_flagged(&self) -> Option<usize> {
            self.flagged.first().copied()
        }
        fn next_flagged_after(&self, rank: usize) -> Option<usize> {
            self.flagged.range((Excluded(rank), Unbounded)).next().copied()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random operation sequences — including equal keys across
        /// classes and promotions in the middle of a flagged sweep —
        /// leave the dense index answering exactly as the ordered sets.
        #[test]
        fn dense_index_matches_the_ordered_set_model(
            classes in 1usize..7,
            ops in prop::collection::vec((0u8..4, 0usize..7, 0u64..4, 0u64..4), 1..80),
        ) {
            let mut dense = ReadyIndex::new(classes);
            let mut model = ReferenceIndex::default();
            for (op, rank, t, id) in ops {
                let rank = rank % classes;
                match op {
                    0 => {
                        dense.set_ready(rank, ReadyIndex::ready_key(t as f64, id));
                        model.set_ready(rank, ReadyIndex::ready_key(t as f64, id));
                    }
                    1 => {
                        dense.set_flagged(rank);
                        model.set_flagged(rank);
                    }
                    2 => {
                        dense.clear(rank);
                        model.clear(rank);
                    }
                    _ => {
                        // The arming sweep: walk the flagged classes and
                        // promote every other one, as the dispatcher
                        // promotes classes whose window has elapsed.
                        let (mut a, mut b) = (dense.first_flagged(), model.first_flagged());
                        let mut promote = t % 2 == 0;
                        while let (Some(ra), Some(rb)) = (a, b) {
                            prop_assert_eq!(ra, rb);
                            a = dense.next_flagged_after(ra);
                            b = model.next_flagged_after(rb);
                            if promote {
                                dense.set_ready(ra, ReadyIndex::ready_key(t as f64, id));
                                model.set_ready(rb, ReadyIndex::ready_key(t as f64, id));
                            }
                            promote = !promote;
                        }
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(dense.best(), model.best());
                prop_assert_eq!(dense.first_flagged(), model.first_flagged());
            }
        }
    }
}
