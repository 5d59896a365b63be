//! The dispatcher's ready-queue index.
//!
//! [`ReadyIndex`] replaces the per-class linear queue scan the
//! self-profiler flagged in `dispatch_scans`: class readiness is
//! maintained incrementally at the points where it can change, in one
//! dense slot per class, so each dispatch iteration reads the slots
//! instead of sweeping every class queue.

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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Bound::{Excluded, Unbounded};

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
