//! Delta subscriptions: push-based change feeds off the materializer folds.
//!
//! Polling readers pay `publish_every` staleness *plus* their own poll
//! interval; a subscriber gets the same information pushed at publish time.
//! Each [`crate::Materializer`] tracks which entities its fold touched since
//! the last publish and, when it publishes, coalesces them into one
//! [`DeltaBatch`] — latest row per dirty entity, never one message per event
//! — handed to every subscriber through a [`DeltaHub`].
//!
//! Rows are upserts and the dashboard is a full replacement, so deltas are
//! idempotent: the recommended consumption pattern is *subscribe first, then
//! read a snapshot, then apply every batch* — a batch that overlaps the
//! snapshot re-states rows the snapshot already had, which is harmless.
//! Batches from a sharded service interleave per shard; `(shard, version)`
//! orders them within one shard's feed.
//!
//! The hub is deliberately passive: when nobody subscribes, the materializer
//! builds no batch. It still notes which ids the fold touched within the
//! current publication interval (one `Vec` push per event, cleared at every
//! publish) — that is what lets a subscriber attach mid-interval and keep
//! the contract above: rows folded since the last publication are in no
//! snapshot it can read yet, so they must be in the next batch.

use crate::tables::{ContinuityToken, Dashboard, PilotRow, UnitRow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One coalesced publication from one shard's fold: every entity the fold
/// touched since the previous publish, at its latest state.
#[derive(Clone, Debug)]
pub struct DeltaBatch {
    /// Which shard's fold produced this batch (0 for an unsharded
    /// materializer).
    pub shard: usize,
    /// The shard's publication counter at emit time; consecutive batches
    /// from one shard carry strictly increasing versions.
    pub version: u64,
    /// Broker-timebase seconds when the batch was emitted (for push-latency
    /// measurement against event enqueue times).
    pub emitted_s: f64,
    /// Newest event enqueue timestamp folded into this batch's rows
    /// (broker timebase), `None` when no event carried one.
    pub newest_enqueued_s: Option<f64>,
    /// The emitting shard's full dashboard (replacement, not a diff — shard
    /// dashboards are summable, so a sharded consumer replaces this shard's
    /// contribution and re-sums).
    pub dashboard: Dashboard,
    /// Latest row of every unit touched since the last publish, id-ordered.
    pub units: Vec<(u64, UnitRow)>,
    /// Latest row of every pilot touched since the last publish, id-ordered.
    pub pilots: Vec<(u64, PilotRow)>,
    /// The shard's continuity token at emit time (its replay position).
    pub token: ContinuityToken,
}

impl DeltaBatch {
    /// Entities carried in this batch.
    pub fn len(&self) -> usize {
        self.units.len() + self.pilots.len()
    }

    /// Whether the batch carries no entities (pure dashboard/position move).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty() && self.pilots.is_empty()
    }
}

/// Fan-out point between one materializer (or one shard set) and its delta
/// subscribers.
#[derive(Default)]
pub struct DeltaHub {
    subscribers: Mutex<Vec<Sender<Arc<DeltaBatch>>>>,
    /// Subscriber count mirrored outside the lock so the fold's hot path can
    /// check "anyone listening?" without taking it.
    active: AtomicUsize,
}

impl DeltaHub {
    pub fn new() -> Self {
        DeltaHub::default()
    }

    /// Whether any subscriber is attached — a publication builds no batch
    /// when this is false.
    pub fn has_subscribers(&self) -> bool {
        self.active.load(Ordering::Acquire) > 0
    }

    /// Attach a new subscriber and return its receiving end.
    pub fn subscribe(self: &Arc<Self>) -> DeltaSubscription {
        let (tx, rx) = std::sync::mpsc::channel();
        self.attach(tx);
        DeltaSubscription { rx }
    }

    /// Attach an existing sender (how a sharded service funnels every
    /// shard's hub into one subscription).
    pub(crate) fn attach(&self, tx: Sender<Arc<DeltaBatch>>) {
        let mut subs = match self.subscribers.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        subs.push(tx);
        self.active.store(subs.len(), Ordering::Release);
    }

    /// Deliver one batch to every subscriber, dropping the ones that hung
    /// up. The subscriber list is cloned out before sending so no lock is
    /// held across the channel sends.
    pub fn publish(&self, batch: Arc<DeltaBatch>) {
        let senders: Vec<Sender<Arc<DeltaBatch>>> = {
            let subs = match self.subscribers.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            subs.clone()
        };
        if senders.is_empty() {
            return;
        }
        let mut dead = false;
        let mut live: Vec<bool> = Vec::with_capacity(senders.len());
        for tx in &senders {
            let ok = tx.send(Arc::clone(&batch)).is_ok();
            dead |= !ok;
            live.push(ok);
        }
        if dead {
            let mut subs = match self.subscribers.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Subscribers added concurrently sit past the cloned prefix and
            // are kept unconditionally.
            let mut it = live.iter();
            subs.retain(|_| *it.next().unwrap_or(&true));
            self.active.store(subs.len(), Ordering::Release);
        }
    }
}

/// A subscriber's receiving end of the delta feed. Dropping it detaches the
/// subscriber (the hub prunes closed channels on the next publish).
pub struct DeltaSubscription {
    rx: Receiver<Arc<DeltaBatch>>,
}

impl DeltaSubscription {
    /// Wrap a receiver whose senders were attached to one or more hubs (how
    /// the sharded service funnels all shard feeds into one subscription).
    pub(crate) fn from_receiver(rx: Receiver<Arc<DeltaBatch>>) -> Self {
        DeltaSubscription { rx }
    }

    /// Next batch if one is already queued; `None` when the feed is empty
    /// or every producer is gone.
    pub fn try_next(&self) -> Option<Arc<DeltaBatch>> {
        match self.rx.try_recv() {
            Ok(b) => Some(b),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Block up to `timeout` for the next batch.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Arc<DeltaBatch>> {
        match self.rx.recv_timeout(timeout) {
            Ok(b) => Some(b),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Arc<DeltaBatch>> {
        let mut out = Vec::new();
        while let Some(b) = self.try_next() {
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(version: u64) -> Arc<DeltaBatch> {
        Arc::new(DeltaBatch {
            shard: 0,
            version,
            emitted_s: 0.0,
            newest_enqueued_s: None,
            dashboard: Dashboard::default(),
            units: Vec::new(),
            pilots: Vec::new(),
            token: ContinuityToken::default(),
        })
    }

    #[test]
    fn hub_fans_out_and_prunes_dead_subscribers() {
        let hub = Arc::new(DeltaHub::new());
        assert!(!hub.has_subscribers());
        hub.publish(batch(0)); // no subscribers: free no-op
        let a = hub.subscribe();
        let b = hub.subscribe();
        assert!(hub.has_subscribers());
        hub.publish(batch(1));
        assert_eq!(a.try_next().expect("a").version, 1);
        assert_eq!(b.try_next().expect("b").version, 1);
        assert!(a.try_next().is_none());
        drop(b);
        hub.publish(batch(2));
        hub.publish(batch(3));
        assert_eq!(a.drain().len(), 2);
        assert!(hub.has_subscribers(), "a is still attached");
        drop(a);
        hub.publish(batch(4));
        assert!(!hub.has_subscribers(), "dead subscribers pruned");
    }

    #[test]
    fn subscription_timeout_returns_none_when_idle() {
        let hub = Arc::new(DeltaHub::new());
        let sub = hub.subscribe();
        assert!(sub.next_timeout(Duration::from_millis(10)).is_none());
        hub.publish(batch(7));
        assert_eq!(
            sub.next_timeout(Duration::from_millis(100))
                .expect("b")
                .version,
            7
        );
    }
}
