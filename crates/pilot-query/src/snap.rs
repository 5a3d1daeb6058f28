//! Lock-free snapshot publication: a hand-rolled `arc-swap`-style cell.
//!
//! The materializer (single writer) publishes each new projection version as
//! an immutable `Arc<T>`; readers grab the current `Arc` with one atomic
//! index load plus a momentary read-lock on the non-written slot. Readers
//! never allocate and never observe a torn value — the slot swap happens
//! entirely under the slot's write lock before the index flips. The writer
//! always prepares the non-current slot, so a publication waits only for a
//! reader still inside the one `Arc::clone` of a load that began before the
//! *previous* flip. Nothing but that pointer swap sits between "folded" and
//! "visible": the snapshot a publication displaces (the one from two
//! publications ago) is released after the flip, outside the lock.
//!
//! Why two slots instead of a real `arc-swap`: the build environment is
//! offline, and the double-slot construction needs nothing beyond
//! `parking_lot` + one atomic. The read path is 2 instructions longer than a
//! true atomic Arc swap; QP-1 shows it still clears the lock path by orders
//! of magnitude.
//!
// lint: deterministic — pure synchronization, no clocks or I/O.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Single-writer, many-reader snapshot cell. See the module docs.
pub struct SnapshotCell<T> {
    slots: [RwLock<Arc<T>>; 2],
    current: AtomicUsize,
}

impl<T> SnapshotCell<T> {
    /// A cell whose first published snapshot is `initial`.
    pub fn new(initial: T) -> Self {
        let a = Arc::new(initial);
        SnapshotCell {
            slots: [RwLock::new(Arc::clone(&a)), RwLock::new(a)],
            current: AtomicUsize::new(0),
        }
    }

    /// The current snapshot. Lock-free in practice: one atomic load plus an
    /// uncontended read-lock held for a single `Arc::clone`. The returned
    /// `Arc` stays valid (and immutable) no matter how many publications
    /// happen after.
    pub fn load(&self) -> Arc<T> {
        let i = self.current.load(Ordering::Acquire) & 1;
        Arc::clone(&self.slots[i].read())
    }

    /// Publish a new snapshot. Single-writer: callers must serialize stores
    /// (the materializer owns the cell's write side). The non-current slot is
    /// written first, then the index flips — a concurrent `load` returns
    /// either the old or the new snapshot, both fully formed. The displaced
    /// snapshot is dropped last, once the new one is visible and no lock is
    /// held: freeing it (if this was its last reference) delays no reader.
    pub fn store(&self, value: T) {
        let next = (self.current.load(Ordering::Relaxed) + 1) & 1;
        let displaced = std::mem::replace(&mut *self.slots[next].write(), Arc::new(value));
        self.current.store(next, Ordering::Release);
        drop(displaced);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("current", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_returns_latest_store() {
        let cell = SnapshotCell::new(0u64);
        assert_eq!(*cell.load(), 0);
        for v in 1..=100 {
            cell.store(v);
            assert_eq!(*cell.load(), v);
        }
    }

    #[test]
    fn old_snapshots_stay_valid_after_publications() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.store(vec![4]);
        cell.store(vec![5]);
        assert_eq!(*old, vec![1, 2, 3], "reader's Arc is immutable");
        assert_eq!(*cell.load(), vec![5]);
    }

    #[test]
    fn displaced_snapshot_is_freed_after_the_new_one_is_visible() {
        /// A snapshot that, when freed, records what the cell serves.
        struct Probe {
            id: u64,
            cell: std::sync::Weak<SnapshotCell<Probe>>,
            seen_at_drop: Arc<parking_lot::Mutex<Vec<(u64, u64)>>>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.upgrade() {
                    // Dropped before the index flips, this reads the
                    // previous snapshot's id; after the flip but still under
                    // the slot's write lock, it deadlocks.
                    let visible = cell.load().id;
                    self.seen_at_drop.lock().push((self.id, visible));
                }
            }
        }
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let cell = Arc::new_cyclic(|weak: &std::sync::Weak<SnapshotCell<Probe>>| {
            SnapshotCell::new(Probe {
                id: 0,
                cell: weak.clone(),
                seen_at_drop: Arc::clone(&seen),
            })
        });
        for id in 1..=4 {
            cell.store(Probe {
                id,
                cell: Arc::downgrade(&cell),
                seen_at_drop: Arc::clone(&seen),
            });
        }
        // Store n displaces snapshot n-2 (snapshot 0 fills both slots, so it
        // goes on the second store) and n must already be what a load sees.
        assert_eq!(*seen.lock(), vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn concurrent_readers_always_see_consistent_pairs() {
        // Snapshot is (n, 2n): a torn read would break the invariant.
        let cell = Arc::new(SnapshotCell::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let s = cell.load();
                        assert_eq!(s.1, s.0 * 2, "torn snapshot");
                        seen = seen.max(s.0);
                    }
                    seen
                })
            })
            .collect();
        for n in 1..=50_000u64 {
            cell.store((n, n * 2));
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            let seen = r.join().expect("reader");
            assert!(seen <= 50_000);
        }
        assert_eq!(cell.load().0, 50_000);
    }
}
