//! The scheduler's ready index: released, unfinished sessions filed by
//! phase and by KV home, so batch formation visits only sessions it could
//! serve.
//!
//! A formation for KV pool `p` may only schedule sessions that are homeless
//! (no pages mapped yet, or evicted) or already homed on `p`. Each model
//! queue therefore keeps two [`Lane`]s — prefilling and decoding sessions —
//! and each lane splits its sessions into one homeless bucket plus one
//! bucket per home pool. A formation walks the merge of the homeless bucket
//! and bucket `p` in key order and stops as soon as the batch is full, so
//! its cost follows the batch, not the live population. With a single KV
//! pool, or none (unbounded), every session may run on every node and each
//! lane is a single bucket.
//!
//! Keys are `(rank, id)`: the rank is the remaining prefill of a prefilling
//! session under shortest-prefill-first admission and zero otherwise, so
//! every bucket is already in policy order. Sessions stay filed while they
//! execute (formation skips in-flight ones), which keeps the index still
//! across a dispatch; only a change of phase, home or rank moves an entry.
//!
//! [`Holders`] files the same sessions by home pool alone, in id order: the
//! preemption victim search walks it from the youngest holder down.

use crate::request::RequestId;

/// A session's position inside a [`Lane`] bucket: policy rank, then id.
pub(crate) type Key = (usize, RequestId);

/// Where a released, unfinished session is filed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Index of the session's model queue.
    pub(crate) qi: usize,
    /// Whether the session is decoding (else prefilling).
    pub(crate) decoding: bool,
    /// The KV pool holding its pages, if any ([`Holders`] files it there).
    pub(crate) home: Option<usize>,
    /// The lane bucket it sits in: its home when the scheduler has several
    /// KV pools, else the homeless bucket — with one pool, every session
    /// is admissible everywhere and a bucket move at admission would buy
    /// nothing.
    pub(crate) bucket: Option<usize>,
    /// Its key inside the bucket.
    pub(crate) key: Key,
}

/// Inserts `x` into the ascending vector `v` (duplicates are ignored).
fn sorted_insert<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

/// Removes `x` from the ascending vector `v` if present.
fn sorted_remove<T: Ord>(v: &mut Vec<T>, x: &T) {
    if let Ok(pos) = v.binary_search(x) {
        v.remove(pos);
    }
}

/// One phase's sessions of one model: a homeless bucket plus one bucket
/// per home pool, each a key-sorted vector.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lane {
    homeless: Vec<Key>,
    homed: Vec<Vec<Key>>,
}

impl Lane {
    fn bucket_mut(&mut self, home: Option<usize>) -> Option<&mut Vec<Key>> {
        match home {
            None => Some(&mut self.homeless),
            Some(p) => {
                if self.homed.len() <= p {
                    self.homed.resize_with(p + 1, Vec::new);
                }
                self.homed.get_mut(p)
            }
        }
    }

    /// Files `key` under `home`.
    pub(crate) fn insert(&mut self, home: Option<usize>, key: Key) {
        if let Some(bucket) = self.bucket_mut(home) {
            sorted_insert(bucket, key);
        }
    }

    /// Unfiles `key` from under `home`.
    pub(crate) fn remove(&mut self, home: Option<usize>, key: Key) {
        if let Some(bucket) = self.bucket_mut(home) {
            sorted_remove(bucket, &key);
        }
    }

    /// The sessions homed on `pool`, in key order.
    fn homed(&self, pool: usize) -> &[Key] {
        self.homed.get(pool).map_or(&[], Vec::as_slice)
    }

    /// Whether any session is filed that a formation on `pool` may visit.
    pub(crate) fn serves(&self, pool: usize) -> bool {
        !self.homeless.is_empty() || !self.homed(pool).is_empty()
    }

    /// Every filed key, bucket by bucket.
    pub(crate) fn all(&self) -> impl Iterator<Item = &Key> {
        self.homeless.iter().chain(self.homed.iter().flatten())
    }

    /// The keys a formation on `pool` may visit, in key order, starting
    /// strictly after `after` (from the first key when `None`).
    pub(crate) fn merged(&self, pool: usize, after: Option<Key>) -> Merged<'_> {
        let tail = |bucket: &'_ [Key]| -> usize {
            after.map_or(0, |a| bucket.partition_point(|&k| k <= a))
        };
        let homed = self.homed(pool);
        Merged {
            a: self.homeless.get(tail(&self.homeless)..).unwrap_or_default(),
            b: homed.get(tail(homed)..).unwrap_or_default(),
        }
    }
}

/// Ascending merge of two key-sorted slices (see [`Lane::merged`]).
pub(crate) struct Merged<'a> {
    a: &'a [Key],
    b: &'a [Key],
}

impl Iterator for Merged<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        let take_a = match (self.a.first(), self.b.first()) {
            (Some(x), Some(y)) => x < y,
            (x, _) => x.is_some(),
        };
        let side = if take_a { &mut self.a } else { &mut self.b };
        let (&head, rest) = side.split_first()?;
        *side = rest;
        Some(head)
    }
}

/// Sessions holding KV pages, filed by home pool in id order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Holders {
    by_pool: Vec<Vec<RequestId>>,
}

impl Holders {
    /// Files `id` as a holder on `pool`.
    pub(crate) fn insert(&mut self, pool: usize, id: RequestId) {
        if self.by_pool.len() <= pool {
            self.by_pool.resize_with(pool + 1, Vec::new);
        }
        if let Some(ids) = self.by_pool.get_mut(pool) {
            sorted_insert(ids, id);
        }
    }

    /// Unfiles `id` from `pool`.
    pub(crate) fn remove(&mut self, pool: usize, id: RequestId) {
        if let Some(ids) = self.by_pool.get_mut(pool) {
            sorted_remove(ids, &id);
        }
    }

    /// The holders on `pool`, youngest (highest id) first.
    pub(crate) fn youngest_first(&self, pool: usize) -> impl Iterator<Item = RequestId> + '_ {
        self.by_pool.get(pool).into_iter().flatten().rev().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rank: usize, id: u64) -> Key {
        (rank, RequestId(id))
    }

    #[test]
    fn merged_walks_homeless_and_one_pool_in_key_order() {
        let mut lane = Lane::default();
        for (home, id) in [(None, 4), (Some(1), 2), (None, 1), (Some(0), 3), (Some(1), 6)] {
            lane.insert(home, key(0, id));
        }
        let ids = |it: Merged<'_>| it.map(|k| k.1 .0).collect::<Vec<_>>();
        assert_eq!(ids(lane.merged(1, None)), [1, 2, 4, 6]);
        assert_eq!(ids(lane.merged(0, None)), [1, 3, 4]);
        assert_eq!(ids(lane.merged(1, Some(key(0, 2)))), [4, 6]);
        assert_eq!(ids(lane.merged(7, None)), [1, 4], "an unseen pool has only homeless work");
        assert!(lane.serves(7));
        lane.remove(None, key(0, 1));
        lane.remove(None, key(0, 4));
        assert!(!lane.serves(7) && lane.serves(0));
        assert_eq!(lane.all().count(), 3);
    }

    #[test]
    fn holders_iterate_youngest_first() {
        let mut h = Holders::default();
        for id in [5, 1, 9] {
            h.insert(2, RequestId(id));
        }
        h.remove(2, RequestId(5));
        assert_eq!(h.youngest_first(2).collect::<Vec<_>>(), [RequestId(9), RequestId(1)]);
        assert_eq!(h.youngest_first(0).count(), 0);
    }
}
