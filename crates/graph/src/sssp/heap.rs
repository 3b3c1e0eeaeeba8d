//! The monotone priority queue under every shortest-path tree in the
//! workspace: a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, *Faster
//! Algorithms for the Shortest Path Problem*, JACM 1990) of
//! `(distance, vertex)` entries with lazy deletion.
//!
//! **Precondition: keys are monotone.** A Dijkstra variant never pushes a
//! distance below the one it last popped, because [`crate::GraphBuilder`]
//! rejects zero weights and a settled vertex only relaxes to `d + w > d`.
//! The radix heap trades on exactly that: an entry lives in the bucket
//! named by the highest bit in which its key differs from the last popped
//! key, so a pop finds the lowest non-empty bucket with one
//! `trailing_zeros` and redistributes it into lower buckets, each entry
//! moving down at most 64 times over its life. A push below the last pop is
//! still answered correctly, on a cold path that rebases every stored entry.
//!
//! **Tie order: `(distance, vertex)` ascending**, exactly the order of a
//! binary min-heap over the pair. The entries equal to the last popped key
//! sit together in bucket 0, which is kept sorted by vertex. The order is
//! observable and callers depend on it: Brandes' betweenness sums floats in
//! settle order, and PLaNT's ancestor choice, the pruned trees' label order,
//! `vertices_explored` and Ψ all follow it, so rankings and labelings stay
//! byte-identical whichever queue sits underneath.
//!
//! Duplicate entries for one vertex are allowed; callers skip stale pops by
//! comparing against their distance arrays.

use crate::types::{Distance, VertexId};

/// One bucket per possible highest differing bit, plus bucket 0 for keys
/// equal to the last pop.
const BUCKETS: usize = Distance::BITS as usize + 1;

/// The bucket of `key` relative to the last popped key `last`: 0 when they
/// are equal, else one plus the highest bit in which they differ.
#[inline(always)]
fn bucket_of(key: Distance, last: Distance) -> usize {
    (Distance::BITS - (key ^ last).leading_zeros()) as usize
}

/// Monotone min-queue of `(distance, vertex)` entries.
#[derive(Debug, Clone)]
pub struct DistanceQueue {
    /// The last popped key (0 when fresh or cleared); no stored key is
    /// below it.
    last: Distance,
    /// Bit `i` is set exactly when `buckets[i]` is non-empty.
    occupied: u128,
    /// `buckets[i]` for `i > 0` holds keys whose highest bit differing from
    /// `last` is `i - 1`; every key there is below every key of a higher
    /// bucket. `buckets[0]` holds keys equal to `last`, sorted by vertex
    /// descending so that `pop` takes the smallest vertex off the back.
    buckets: [Vec<(Distance, VertexId)>; BUCKETS],
}

impl Default for DistanceQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl DistanceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DistanceQueue {
            last: 0,
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Pushes an entry. Duplicate entries for a vertex are allowed; the caller
    /// is expected to skip stale pops by comparing against its distance array.
    #[inline]
    pub fn push(&mut self, dist: Distance, v: VertexId) {
        if dist < self.last {
            self.lower_floor(dist);
        }
        let i = bucket_of(dist, self.last);
        let bucket = &mut self.buckets[i];
        if i == 0 {
            let at = bucket.partition_point(|&(_, u)| u > v);
            bucket.insert(at, (dist, v));
        } else {
            bucket.push((dist, v));
        }
        self.occupied |= 1 << i;
    }

    /// Pops the entry with the smallest distance, the smallest vertex among
    /// equal distances.
    #[inline]
    pub fn pop(&mut self) -> Option<(Distance, VertexId)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let bucket = &mut self.buckets[0];
        let entry = bucket.pop();
        if bucket.is_empty() {
            self.occupied &= !1;
        }
        entry
    }

    /// Empties the lowest non-empty bucket (bucket 0 is empty) into the ones
    /// below it, relative to its minimum key, which becomes `last`.
    fn refill(&mut self) {
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        let min = bucket.iter().map(|&(d, _)| d).min().unwrap_or(self.last);
        self.last = min;
        for &(d, v) in &bucket {
            let j = bucket_of(d, min);
            self.buckets[j].push((d, v));
            self.occupied |= 1 << j;
        }
        bucket.clear();
        // Hand the emptied allocation back for the bucket's next fill.
        self.buckets[i] = bucket;
        let zero = &mut self.buckets[0];
        if zero.len() > 1 {
            zero.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(v));
        }
    }

    /// The cold path for a push below the last pop: lowers `last` to `key`
    /// and re-files every stored entry against it. None of them can land in
    /// bucket 0, since each is at least the old `last`, which exceeds `key`.
    #[cold]
    fn lower_floor(&mut self, key: Distance) {
        let mut entries = Vec::new();
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        self.last = key;
        self.occupied = 0;
        for (d, v) in entries {
            self.push(d, v);
        }
    }

    /// Number of entries currently stored (including stale duplicates).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// `true` when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Removes all entries, keeping the buckets' allocations.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.last = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_distance_order() {
        let mut q = DistanceQueue::new();
        q.push(5, 1);
        q.push(2, 2);
        q.push(9, 3);
        q.push(2, 4);
        let mut out = Vec::new();
        while let Some((d, v)) = q.pop() {
            out.push((d, v));
        }
        assert_eq!(out[0].0, 2);
        assert_eq!(out[1].0, 2);
        assert_eq!(out[2], (5, 1));
        assert_eq!(out[3], (9, 3));
    }

    #[test]
    fn len_and_clear() {
        let mut q = DistanceQueue::new();
        assert!(q.is_empty());
        q.push(3, 0);
        q.push(1, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        // A cleared queue starts over from distance 0 without a rebase.
        q.push(0, 4);
        assert_eq!(q.pop(), Some((0, 4)));
    }

    #[test]
    fn ties_break_by_vertex_id() {
        let mut q = DistanceQueue::new();
        q.push(4, 9);
        q.push(4, 2);
        assert_eq!(q.pop(), Some((4, 2)));
        assert_eq!(q.pop(), Some((4, 9)));
    }

    #[test]
    fn push_below_the_last_pop_comes_out_first() {
        let mut q = DistanceQueue::new();
        q.push(100, 0);
        q.push(101, 1);
        q.push(150, 2);
        assert_eq!(q.pop(), Some((100, 0)));
        q.push(50, 3);
        assert_eq!(q.pop(), Some((50, 3)));
        assert_eq!(q.pop(), Some((101, 1)));
        assert_eq!(q.pop(), Some((150, 2)));
        assert_eq!(q.pop(), None);
    }
}
