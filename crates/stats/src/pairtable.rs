//! Hybrid sorted/append storage shared by [`crate::Histogram`] and
//! [`crate::TransitionMatrix`].
//!
//! The trace-recording hot path appends millions of `(key, count)`
//! observations; a `BTreeMap` pays a node allocation and a pointer chase
//! per insert. A [`PairTable`] instead keeps
//!
//! * `sorted` — the normalised bins: sorted by key, one entry per distinct
//!   key, inline (no heap) while at most [`INLINE`] entries, and
//! * `pending` — a fixed 8-slot append buffer that absorbs writes and is
//!   *folded* (sorted, coalesced, merged) into `sorted` when full.
//!
//! Reads are **sorted-on-read**: every observation (`iter`, `get`,
//! equality, `Hash`, serde) sees the normalised form, so callers cannot
//! tell the append buffer exists. When `pending` is empty the snapshot is
//! a borrow; otherwise it allocates a merged copy — call
//! [`PairTable::normalize`] after the write burst (as `AdcfgBuilder::
//! finish` does) to make every later read borrow.
//!
//! The running `total` is maintained on write, making `Histogram::total`
//! and `TransitionMatrix::executions` O(1).

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

/// Entries kept inline (no heap allocation) in both the sorted storage
/// and the pending append buffer. Covers the common case: per-visit cost
/// histograms hold one bin, address histograms a handful.
pub(crate) const INLINE: usize = 8;

/// Keys [`PairTable::record_each`] folds in one step beyond the append
/// buffer: the widest warp the simulator runs, so one warp access costs
/// at most one fold.
const BATCH: usize = 64;

/// The key types the table is instantiated at.
pub(crate) trait PairKey: Copy + Ord + Default + Hash {}
impl<T: Copy + Ord + Default + Hash> PairKey for T {}

/// Sorted, coalesced `(key, count)` bins: inline up to [`INLINE`]
/// distinct keys, spilled to a `Vec` beyond.
#[derive(Debug, Clone)]
enum Sorted<K> {
    Inline { len: u8, buf: [(K, u64); INLINE] },
    Heap(Vec<(K, u64)>),
}

impl<K: PairKey> Sorted<K> {
    fn new() -> Self {
        Sorted::Inline {
            len: 0,
            buf: [(K::default(), 0); INLINE],
        }
    }

    fn as_slice(&self) -> &[(K, u64)] {
        match self {
            Sorted::Inline { len, buf } => &buf[..usize::from(*len)],
            Sorted::Heap(v) => v,
        }
    }

    fn from_slice(pairs: &[(K, u64)]) -> Self {
        if pairs.len() <= INLINE {
            let mut buf = [(K::default(), 0); INLINE];
            buf[..pairs.len()].copy_from_slice(pairs);
            Sorted::Inline {
                len: pairs.len() as u8,
                buf,
            }
        } else {
            Sorted::Heap(pairs.to_vec())
        }
    }

    /// Merges a sorted, coalesced, non-empty `add` slice into the storage.
    fn merge_in(&mut self, add: &[(K, u64)]) {
        match self {
            Sorted::Inline { len, buf } => {
                let cur_len = usize::from(*len);
                // Monotonic appends (lane-ordered addresses) keep inline.
                if cur_len + add.len() <= INLINE
                    && buf[..cur_len].last().is_none_or(|l| l.0 < add[0].0)
                {
                    buf[cur_len..cur_len + add.len()].copy_from_slice(add);
                    *len += add.len() as u8;
                    return;
                }
                if cur_len + add.len() <= 2 * INLINE {
                    let mut out = [(K::default(), 0u64); 2 * INLINE];
                    let n = merge_into(&buf[..cur_len], add, &mut out);
                    *self = Sorted::from_slice(&out[..n]);
                } else {
                    *self = Sorted::Heap(merge_to_vec(&buf[..cur_len], add));
                }
            }
            Sorted::Heap(v) => {
                if v.last().is_none_or(|l| l.0 < add[0].0) {
                    v.extend_from_slice(add);
                } else {
                    *v = merge_to_vec(v, add);
                }
            }
        }
    }
}

/// Two-pointer merge of sorted coalesced slices into `out`, summing
/// counts on equal keys. Returns the merged length. `out` must hold
/// `a.len() + b.len()` entries.
fn merge_into<K: PairKey>(a: &[(K, u64)], b: &[(K, u64)], out: &mut [(K, u64)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let entry = match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                i += 1;
                a[i - 1]
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                b[j - 1]
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                (a[i - 1].0, a[i - 1].1 + b[j - 1].1)
            }
        };
        out[n] = entry;
        n += 1;
    }
    for &e in &a[i..] {
        out[n] = e;
        n += 1;
    }
    for &e in &b[j..] {
        out[n] = e;
        n += 1;
    }
    n
}

fn merge_to_vec<K: PairKey>(a: &[(K, u64)], b: &[(K, u64)]) -> Vec<(K, u64)> {
    let mut out = vec![(K::default(), 0u64); a.len() + b.len()];
    let n = merge_into(a, b, &mut out);
    out.truncate(n);
    out
}

/// Sorts `pending[..len]` by key and coalesces equal keys in place;
/// returns the coalesced length.
fn coalesce<K: PairKey>(pending: &mut [(K, u64)]) -> usize {
    if pending.is_empty() {
        return 0;
    }
    pending.sort_unstable_by_key(|&(k, _)| k);
    let mut w = 0;
    for i in 1..pending.len() {
        if pending[i].0 == pending[w].0 {
            pending[w].1 += pending[i].1;
        } else {
            w += 1;
            pending[w] = pending[i];
        }
    }
    w + 1
}

/// A counter map from `K` to `u64` with an append fast path.
///
/// Observationally identical to a `BTreeMap<K, u64>` that drops zero
/// counts: iteration order, equality, `Hash` and the running total all
/// reflect the normalised bins regardless of how writes were buffered.
#[derive(Debug, Clone)]
pub(crate) struct PairTable<K> {
    sorted: Sorted<K>,
    pending: [(K, u64); INLINE],
    pending_len: u8,
    total: u64,
}

impl<K: PairKey> Default for PairTable<K> {
    fn default() -> Self {
        PairTable {
            sorted: Sorted::new(),
            pending: [(K::default(), 0); INLINE],
            pending_len: 0,
            total: 0,
        }
    }
}

impl<K: PairKey> PairTable<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table directly from already-normalised bins (deserialize
    /// path). Keys must be strictly increasing; zero counts are dropped.
    pub fn from_sorted_pairs(pairs: Vec<(K, u64)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let pairs: Vec<(K, u64)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        let total = pairs.iter().map(|&(_, c)| c).sum();
        PairTable {
            sorted: Sorted::from_slice(&pairs),
            pending: [(K::default(), 0); INLINE],
            pending_len: 0,
            total,
        }
    }

    /// Adds `count` observations of `key` (no-op when `count` is zero).
    #[inline]
    pub fn record(&mut self, key: K, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        let len = usize::from(self.pending_len);
        if len > 0 && self.pending[len - 1].0 == key {
            self.pending[len - 1].1 += count;
            return;
        }
        if len == INLINE {
            self.fold();
            self.pending[0] = (key, count);
            self.pending_len = 1;
        } else {
            self.pending[len] = (key, count);
            self.pending_len = len as u8 + 1;
        }
    }

    /// Adds one observation of each key — observably the same as
    /// `record(key, 1)` per key, with at most one fold per [`BATCH`] keys.
    /// Keys that fit the append buffer land there as `record` would put
    /// them; once it is full, the buffer and the remaining keys are sorted
    /// and coalesced together on the stack and merged into the sorted bins
    /// in one step.
    pub fn record_each(&mut self, keys: impl IntoIterator<Item = K>) {
        let mut keys = keys.into_iter();
        let first_overflow = loop {
            let Some(key) = keys.next() else { return };
            let len = usize::from(self.pending_len);
            if len == INLINE && self.pending[len - 1].0 != key {
                break key;
            }
            self.record(key, 1);
        };
        let mut batch = [(K::default(), 1u64); INLINE + BATCH];
        batch[..INLINE].copy_from_slice(&self.pending);
        batch[INLINE] = (first_overflow, 1);
        self.pending_len = 0;
        self.total += 1;
        let mut n = INLINE + 1;
        for key in keys {
            if n == batch.len() {
                let coalesced = coalesce(&mut batch[..n]);
                self.sorted.merge_in(&batch[..coalesced]);
                n = 0;
            }
            batch[n] = (key, 1);
            n += 1;
            self.total += 1;
        }
        let coalesced = coalesce(&mut batch[..n]);
        self.sorted.merge_in(&batch[..coalesced]);
    }

    /// Folds the pending buffer into the sorted bins.
    fn fold(&mut self) {
        let len = usize::from(self.pending_len);
        if len == 0 {
            return;
        }
        let coalesced = coalesce(&mut self.pending[..len]);
        self.sorted.merge_in(&self.pending[..coalesced]);
        self.pending_len = 0;
    }

    /// Folds any buffered writes so later reads borrow the sorted bins
    /// instead of allocating a merged snapshot.
    pub fn normalize(&mut self) {
        self.fold();
        debug_assert_eq!(
            self.total,
            self.sorted.as_slice().iter().map(|&(_, c)| c).sum::<u64>(),
            "maintained total must match the bins"
        );
    }

    /// The normalised bins: sorted by key, coalesced, zero-free. Borrows
    /// when nothing is pending; allocates a merged copy otherwise.
    pub fn snapshot(&self) -> Cow<'_, [(K, u64)]> {
        let len = usize::from(self.pending_len);
        if len == 0 {
            return Cow::Borrowed(self.sorted.as_slice());
        }
        let mut pending = self.pending;
        let coalesced = coalesce(&mut pending[..len]);
        Cow::Owned(merge_to_vec(self.sorted.as_slice(), &pending[..coalesced]))
    }

    /// The count recorded for `key` (zero when absent).
    pub fn get(&self, key: K) -> u64 {
        let sorted = self.sorted.as_slice();
        let base = match sorted.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => sorted[i].1,
            Err(_) => 0,
        };
        base + self.pending[..usize::from(self.pending_len)]
            .iter()
            .filter(|&&(k, _)| k == key)
            .map(|&(_, c)| c)
            .sum::<u64>()
    }

    /// The number of distinct keys observed.
    pub fn distinct(&self) -> usize {
        if self.pending_len == 0 {
            self.sorted.as_slice().len()
        } else {
            self.snapshot().len()
        }
    }

    /// The sum of all counts, maintained on write (O(1)).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates normalised `(key, count)` bins in increasing key order.
    pub fn iter(&self) -> PairIter<'_, K> {
        match self.snapshot() {
            Cow::Borrowed(slice) => PairIter::Borrowed(slice.iter()),
            Cow::Owned(vec) => PairIter::Owned(vec.into_iter()),
        }
    }

    /// Adds every bin of `other` into this table (count-additive).
    pub fn merge(&mut self, other: &PairTable<K>) {
        self.fold();
        let add = other.snapshot();
        if add.is_empty() {
            return;
        }
        self.total += other.total;
        self.sorted.merge_in(&add);
    }

    /// Multiplies every count by `k` — exactly equivalent to merging this
    /// table into an empty one `k` times (all counts are `u64`, so the
    /// scaled result is bit-identical to the repeated merge).
    pub fn scale(&mut self, k: u64) {
        if k == 1 {
            return;
        }
        self.total *= k;
        match &mut self.sorted {
            Sorted::Inline { len, buf } => {
                for pair in &mut buf[..usize::from(*len)] {
                    pair.1 *= k;
                }
            }
            Sorted::Heap(v) => {
                for pair in v {
                    pair.1 *= k;
                }
            }
        }
        for pair in &mut self.pending[..usize::from(self.pending_len)] {
            pair.1 *= k;
        }
        if k == 0 {
            // Zero counts are not representable; scaling by zero empties.
            self.sorted = Sorted::new();
            self.pending_len = 0;
        }
    }
}

impl<K: PairKey> PartialEq for PairTable<K> {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.snapshot() == other.snapshot()
    }
}

impl<K: PairKey> Eq for PairTable<K> {}

impl<K: PairKey> Hash for PairTable<K> {
    /// Matches the derived hash of a `BTreeMap<K, u64>` field exactly
    /// (length prefix via `write_usize`, then each `(key, count)` pair in
    /// key order), so trace digests are unchanged by the hybrid storage.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let snapshot = self.snapshot();
        state.write_usize(snapshot.len());
        for &(k, c) in snapshot.iter() {
            k.hash(state);
            c.hash(state);
        }
    }
}

/// Iterator over normalised bins; borrows the sorted storage when no
/// writes are pending.
pub(crate) enum PairIter<'a, K> {
    Borrowed(std::slice::Iter<'a, (K, u64)>),
    Owned(std::vec::IntoIter<(K, u64)>),
}

impl<K: Copy> Iterator for PairIter<'_, K> {
    type Item = (K, u64);

    fn next(&mut self) -> Option<(K, u64)> {
        match self {
            PairIter::Borrowed(it) => it.next().copied(),
            PairIter::Owned(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PairIter::Borrowed(it) => it.size_hint(),
            PairIter::Owned(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(t: &PairTable<u64>) -> Vec<(u64, u64)> {
        t.iter().collect()
    }

    #[test]
    fn records_coalesce_and_sort() {
        let mut t = PairTable::new();
        for &k in &[9u64, 1, 5, 1, 9, 9] {
            t.record(k, 2);
        }
        assert_eq!(pairs(&t), vec![(1, 4), (5, 2), (9, 6)]);
        assert_eq!(t.total(), 12);
        assert_eq!(t.distinct(), 3);
    }

    #[test]
    fn overflowing_inline_spills_to_heap() {
        let mut t = PairTable::new();
        for k in 0..100u64 {
            t.record(k % 37, 1);
        }
        t.normalize();
        assert_eq!(t.distinct(), 37);
        assert_eq!(t.total(), 100);
        let p = pairs(&t);
        assert!(p.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(p.iter().map(|&(_, c)| c).sum::<u64>(), 100);
    }

    #[test]
    fn snapshot_borrows_after_normalize() {
        let mut t = PairTable::new();
        t.record(3u64, 1);
        assert!(matches!(t.snapshot(), Cow::Owned(_)), "pending write");
        t.normalize();
        assert!(matches!(t.snapshot(), Cow::Borrowed(_)));
    }

    #[test]
    fn equality_and_hash_ignore_buffering() {
        use std::hash::{DefaultHasher, Hasher as _};
        let mut buffered = PairTable::new();
        let mut normalized = PairTable::new();
        for &k in &[8u64, 2, 8, 4] {
            buffered.record(k, 1);
            normalized.record(k, 1);
        }
        normalized.normalize();
        assert_eq!(buffered, normalized);
        let digest = |t: &PairTable<u64>| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&buffered), digest(&normalized));
    }

    #[test]
    fn record_each_matches_per_key_records() {
        for prefix in 0..12u64 {
            for len in [0usize, 1, 5, 8, 9, 63, 64, 72, 73, 200] {
                let mut batched = PairTable::new();
                let mut single = PairTable::new();
                for k in 0..prefix {
                    batched.record(k * 7 % 5, 1);
                    single.record(k * 7 % 5, 1);
                }
                let keys: Vec<u64> = (0..len as u64).map(|i| (i * 37 + prefix) % 23).collect();
                for &k in &keys {
                    single.record(k, 1);
                }
                batched.record_each(keys);
                assert_eq!(pairs(&batched), pairs(&single), "prefix {prefix} len {len}");
                assert_eq!(batched.total(), single.total());
            }
        }
    }

    #[test]
    fn merge_is_count_additive() {
        let mut a = PairTable::new();
        let mut b = PairTable::new();
        for k in 0..20u64 {
            a.record(k, 1);
            b.record(k / 2, 3);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for k in 0..20u64 {
            assert_eq!(merged.get(k), a.get(k) + b.get(k), "key {k}");
        }
        assert_eq!(merged.total(), a.total() + b.total());
    }
}
