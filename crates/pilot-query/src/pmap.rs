//! A persistent ordered map from `u64` ids to rows: the unit table's storage.
//!
//! Rows live in sorted chunks of at most [`CHUNK`] entries, each behind an
//! `Arc`; a flat vector of the chunks' smallest keys finds the chunk by
//! binary search. Cloning the map copies the two vectors and bumps one
//! reference count per chunk — no row is copied — and a write into a chunk
//! that a clone still holds copies that one chunk first (`Arc::make_mut`).
//! So a clone costs O(rows / CHUNK) pointer copies, a write costs at most one
//! ≤ CHUNK-row copy per distinct chunk touched since the last clone, and
//! every clone keeps reading exactly the rows it was taken with.
//!
//! That is what makes publishing a snapshot cost what the fold touched
//! instead of what the table holds: the working tables, the published
//! snapshots and a restarted fold's starting point all share every chunk
//! none of them has written since they diverged.
//!
// lint: deterministic — sorted layout, no hashing, no clocks, no I/O.

use std::sync::Arc;

/// Most rows one chunk holds. A write into a shared chunk copies this many
/// rows at worst; a clone copies `len / CHUNK` pointers at best.
const CHUNK: usize = 64;

/// One sorted run of rows: `keys[i]` maps to `vals[i]`, keys strictly
/// ascending, never empty once it is in a map, never longer than [`CHUNK`].
#[derive(Debug)]
struct Chunk<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
}

impl<V> Chunk<V> {
    /// Room for a full chunk up front: no insert ever reallocates.
    fn empty() -> Self {
        Chunk {
            keys: Vec::with_capacity(CHUNK),
            vals: Vec::with_capacity(CHUNK),
        }
    }

    fn one(key: u64, val: V) -> Self {
        let mut c = Chunk::empty();
        c.keys.push(key);
        c.vals.push(val);
        c
    }
}

/// The copy `Arc::make_mut` takes on the first write into a shared chunk.
impl<V: Clone> Clone for Chunk<V> {
    fn clone(&self) -> Self {
        let mut c = Chunk::empty();
        c.keys.extend_from_slice(&self.keys);
        c.vals.extend_from_slice(&self.vals);
        c
    }
}

/// Sorted `u64 → V` map whose clones share storage. See the module docs.
#[derive(Clone)]
pub(crate) struct PMap<V> {
    /// `mins[c]` is the smallest key of `chunks[c]`; strictly ascending.
    mins: Vec<u64>,
    chunks: Vec<Arc<Chunk<V>>>,
    len: usize,
}

impl<V> Default for PMap<V> {
    fn default() -> Self {
        PMap {
            mins: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<V> PMap<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index of the only chunk that can hold `key`: the last one whose
    /// smallest key is `<= key` (the first chunk for a key below them all).
    fn chunk_of(&self, key: u64) -> usize {
        self.mins.partition_point(|&m| m <= key).saturating_sub(1)
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let chunk = self.chunks.get(self.chunk_of(key))?;
        let i = chunk.keys.binary_search(&key).ok()?;
        Some(&chunk.vals[i])
    }

    /// Every entry, in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.chunks
            .iter()
            .flat_map(|c| c.keys.iter().copied().zip(c.vals.iter()))
    }

    /// How many chunks `self` and `other` hold in common (the same
    /// allocation, not equal contents), and how many `self` holds at all.
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count();
        (shared, self.chunks.len())
    }
}

impl<V: Clone> PMap<V> {
    /// The row under `key`, inserted as `make()` first if there is none.
    /// Copies the row's chunk if a clone of the map still shares it.
    pub(crate) fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let mut c = self.chunk_of(key);
        let found = match self.chunks.get(c) {
            Some(chunk) => chunk.keys.binary_search(&key),
            None => Err(CHUNK), // empty map: nothing to search, nothing to split
        };
        let i = match found {
            Ok(i) => i,
            // Past the end of a full last chunk — what ascending ids do:
            // start a new chunk and leave the full one behind, untouched.
            Err(CHUNK) if c + 1 >= self.chunks.len() => {
                self.mins.push(key);
                self.chunks.push(Arc::new(Chunk::one(key, make())));
                c = self.chunks.len() - 1;
                0
            }
            Err(mut i) => {
                if self.chunks[c].keys.len() >= CHUNK {
                    // Full: move the upper half into a new right neighbour.
                    let left = Arc::make_mut(&mut self.chunks[c]);
                    let mut right = Chunk::empty();
                    right.keys.extend(left.keys.drain(CHUNK / 2..));
                    right.vals.extend(left.vals.drain(CHUNK / 2..));
                    self.mins.insert(c + 1, right.keys[0]);
                    self.chunks.insert(c + 1, Arc::new(right));
                    if i > CHUNK / 2 {
                        c += 1;
                        i -= CHUNK / 2;
                    }
                }
                let chunk = Arc::make_mut(&mut self.chunks[c]);
                chunk.keys.insert(i, key);
                chunk.vals.insert(i, make());
                if i == 0 {
                    // Only a key below every other lands in front of a chunk.
                    self.mins[c] = key;
                }
                i
            }
        };
        if found.is_err() {
            self.len += 1;
        }
        &mut Arc::make_mut(&mut self.chunks[c]).vals[i]
    }

    /// Build from rows in ascending key order: chunks are filled left to
    /// right, no search, no shifting, no splits. A key that does not ascend
    /// (a duplicate, or input that was not sorted after all) is upserted in
    /// place instead, so the last row given for a key wins.
    pub(crate) fn from_sorted(rows: impl IntoIterator<Item = (u64, V)>) -> Self {
        let mut out = PMap::default();
        let mut last: Option<u64> = None;
        for (key, val) in rows {
            if last.is_some_and(|l| key <= l) {
                let slot = out.get_or_insert_with(key, || val.clone());
                *slot = val;
                continue;
            }
            last = Some(key);
            match out.chunks.last_mut() {
                Some(tail) if tail.keys.len() < CHUNK => {
                    let tail = Arc::make_mut(tail);
                    tail.keys.push(key);
                    tail.vals.push(val);
                }
                _ => {
                    out.mins.push(key);
                    out.chunks.push(Arc::new(Chunk::one(key, val)));
                }
            }
            out.len += 1;
        }
        out
    }
}

/// Equality is over the entries, not the chunk layout: two maps holding the
/// same rows are equal whatever order they were inserted (and split) in.
impl<V: PartialEq> PartialEq for PMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for PMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn check(map: &PMap<u64>, model: &BTreeMap<u64, u64>) {
        assert_eq!(map.len(), model.len());
        let got: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert_eq!(map.mins.len(), map.chunks.len());
        for (min, chunk) in map.mins.iter().zip(&map.chunks) {
            assert_eq!(chunk.keys.first(), Some(min), "mins mirror the chunks");
            assert!(chunk.keys.len() <= CHUNK && chunk.keys.len() == chunk.vals.len());
        }
    }

    #[test]
    fn inserts_in_any_order_stay_sorted_and_findable() {
        let orders: [Box<dyn Fn(u64) -> u64>; 3] = [
            Box::new(|i| i * 2),
            Box::new(|i| u64::MAX - i * 2),
            Box::new(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ];
        for order in orders {
            let mut map = PMap::default();
            let mut model = BTreeMap::new();
            for i in 0..1_000u64 {
                let key = order(i);
                *map.get_or_insert_with(key, || 0) += i + 1;
                *model.entry(key).or_insert(0) += i + 1;
                // ... and again: an update must find the row it just made.
                *map.get_or_insert_with(key, || 0) += 1;
                *model.entry(key).or_insert(0) += 1;
            }
            check(&map, &model);
            for (k, v) in &model {
                assert_eq!(map.get(*k), Some(v));
                assert_eq!(map.get(k ^ 1), model.get(&(k ^ 1)));
            }
        }
        assert_eq!(PMap::<u64>::default().get(7), None);
    }

    #[test]
    fn ascending_inserts_fill_chunks_instead_of_halving_them() {
        let mut map = PMap::default();
        for key in 0..(CHUNK as u64 * 10) {
            map.get_or_insert_with(key, || key);
        }
        assert_eq!(map.chunks.len(), 10);
    }

    #[test]
    fn a_clone_shares_every_chunk_until_one_side_writes() {
        let mut map = PMap::default();
        for key in 0..1_000u64 {
            map.get_or_insert_with(key, || key);
        }
        let snap = map.clone();
        let chunks = map.chunks.len();
        assert_eq!(map.shared_chunks(&snap), (chunks, chunks));
        *map.get_or_insert_with(500, || 0) = 7;
        *map.get_or_insert_with(501, || 0) = 8; // same chunk: copied once
        assert_eq!(map.shared_chunks(&snap), (chunks - 1, chunks));
        assert_eq!(snap.get(500), Some(&500), "the clone kept its row");
        assert_eq!(map.get(500), Some(&7));
        drop(snap);
        let before = Arc::as_ptr(&map.chunks[map.chunk_of(10)]);
        *map.get_or_insert_with(10, || 0) = 9;
        let after = Arc::as_ptr(&map.chunks[map.chunk_of(10)]);
        assert_eq!(before, after, "an unshared chunk is written in place");
    }

    #[test]
    fn from_sorted_fills_left_to_right_and_the_last_duplicate_wins() {
        let rows: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 3, k)).collect();
        let map = PMap::from_sorted(rows.iter().copied());
        check(&map, &rows.iter().copied().collect());
        assert_eq!(map.chunks.len(), 300usize.div_ceil(CHUNK));
        // Duplicates and a stray descending key: upserted, last one wins.
        let messy = [(1, 10), (5, 50), (5, 51), (9, 90), (3, 30), (9, 91)];
        let map = PMap::from_sorted(messy);
        check(&map, &messy.into_iter().collect());
        assert_eq!(map.get(5), Some(&51));
        assert_eq!(map.get(9), Some(&91));
        // Layout is not identity: the same rows, inserted one by one.
        let mut one_by_one = PMap::default();
        for &(k, v) in rows.iter().rev() {
            one_by_one.get_or_insert_with(k, || v);
        }
        assert_eq!(one_by_one, PMap::from_sorted(rows.iter().copied()));
        assert_ne!(one_by_one.chunks.len(), 300usize.div_ceil(CHUNK));
    }
}
