//! Query-optimized projection tables.
//!
//! [`QueryTables`] is the materialized state a [`crate::Materializer`] folds
//! the projection topic into: a unit-status table, a per-pilot capacity /
//! utilization table, and a pre-aggregated experiment [`Dashboard`]. Tables
//! are plain values — the materializer mutates a private working copy and
//! publishes immutable clones through a [`crate::SnapshotCell`], so readers
//! never contend with the fold.
//!
//! A clone is cheap whatever the table holds: the unit table is a
//! structurally shared sorted map (`pmap`) whose clones share every chunk of
//! rows neither side has written since, so publishing costs the rows the
//! fold touched since the last publication, not the rows ever folded. The
//! pilot table (tens of rows) is an ordinary `BTreeMap`.
//!
//! Every table write goes through `publish` (the unchecked mirror-store from
//! `pilot-core::state`): projections *copy* states the authoritative machine
//! already validated, possibly observing them out of order across entities.
//!
//! [`QueryTables::digest`] is the replay-equivalence check used by the
//! materializer restart proptest: two table sets built from the same event
//! prefix hash identically, regardless of how many times the fold was
//! interrupted and resumed. The digest deliberately excludes `version`
//! (publication count differs between a killed/resumed run and an unkilled
//! one; the *data* must not).
//!
// lint: deterministic — pure fold over events; no clocks, no I/O.

use crate::pmap::PMap;
use pilot_core::events::{
    pilot_state_code, unit_state_code, ProjEvent, PILOT_STATE_COUNT, UNIT_STATE_COUNT,
};
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::state::{PilotState, UnitState};
use std::collections::BTreeMap;

/// Latest observed status of one compute unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitRow {
    pub state: UnitState,
    /// Pilot the unit was last bound to (sticky across `Running`; cleared
    /// only by an explicit unbound `Unit` event).
    pub pilot: Option<PilotId>,
    /// Producer-timebase timestamp of the last event applied to this row.
    pub event_t_s: f64,
    /// Latest observed queue wait of this unit, integer nanoseconds.
    /// Metrics are *upserts* (latest per unit, not running totals) so that a
    /// fold over a compacted topic — which only retains the newest metric
    /// event per unit — reconstructs exactly this row.
    pub wait_ns: u64,
    /// Latest observed execution time of this unit, integer nanoseconds.
    pub exec_ns: u64,
    /// Whether any `UnitMetric` event has been folded into this row (a
    /// legitimate metric can be 0 ns, so presence needs its own flag).
    pub has_metric: bool,
}

/// Latest observed status + capacity of one pilot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PilotRow {
    pub state: PilotState,
    pub free_cores: u32,
    pub total_cores: u32,
    /// Producer-timebase timestamp of the last event applied to this row.
    pub event_t_s: f64,
}

impl PilotRow {
    /// Fraction of this pilot's cores currently bound, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            1.0 - self.free_cores as f64 / self.total_cores as f64
        }
    }
}

/// Pre-aggregated counters an experiment dashboard reads in O(1) — the
/// numbers ST-1-style drivers otherwise recompute by folding the whole
/// registry under its lock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dashboard {
    /// Unit count per state, indexed by `unit_state_code`.
    pub units_by_state: [u64; UNIT_STATE_COUNT],
    /// Pilot count per state, indexed by `pilot_state_code`.
    pub pilots_by_state: [u64; PILOT_STATE_COUNT],
    /// Sum of `total_cores` over non-terminal pilots.
    pub total_cores: u64,
    /// Sum of `free_cores` over non-terminal pilots.
    pub free_cores: u64,
    /// Number of units with at least one folded `UnitMetric` event. A
    /// per-unit presence count (not an event count) so a compacted topic —
    /// which retains only the newest metric per unit — folds to the same
    /// dashboard as the full history.
    pub exec_count: u64,
    /// Sum over units of the *latest* execution time, in integer
    /// nanoseconds. Integer (not f64) on purpose: partitions drain in
    /// arrival interleavings that vary run to run, and float addition is not
    /// associative — an integer sum is the same whatever the fold order,
    /// which is what makes a resumed materializer's digest bit-identical to
    /// an unkilled one, and shard-merged sums bit-identical to a
    /// single-shard fold.
    pub exec_sum_ns: u64,
    /// Sum over units of the latest queue-wait time, in integer nanoseconds.
    pub wait_sum_ns: u64,
}

/// Seconds → non-negative integer nanoseconds (the dashboard's sum unit).
fn secs_to_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

impl Dashboard {
    fn new() -> Self {
        Dashboard {
            units_by_state: [0; UNIT_STATE_COUNT],
            pilots_by_state: [0; PILOT_STATE_COUNT],
            total_cores: 0,
            free_cores: 0,
            exec_count: 0,
            exec_sum_ns: 0,
            wait_sum_ns: 0,
        }
    }

    /// Units in the given state.
    pub fn units_in(&self, s: UnitState) -> u64 {
        self.units_by_state[unit_state_code(s) as usize]
    }

    /// Pilots in the given state.
    pub fn pilots_in(&self, s: PilotState) -> u64 {
        self.pilots_by_state[pilot_state_code(s) as usize]
    }

    /// Units not yet in a terminal state.
    pub fn open_units(&self) -> u64 {
        [
            UnitState::New,
            UnitState::Pending,
            UnitState::Assigned,
            UnitState::Staging,
            UnitState::Running,
        ]
        .iter()
        .map(|&s| self.units_in(s))
        .sum()
    }

    /// Aggregate core utilization over live pilots, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            1.0 - self.free_cores as f64 / self.total_cores as f64
        }
    }

    /// Sum of unit execution times in seconds.
    pub fn exec_sum_s(&self) -> f64 {
        self.exec_sum_ns as f64 / 1e9
    }

    /// Sum of unit queue waits in seconds.
    pub fn wait_sum_s(&self) -> f64 {
        self.wait_sum_ns as f64 / 1e9
    }

    /// Mean unit execution time (seconds), 0 before the first completion.
    pub fn mean_exec_s(&self) -> f64 {
        if self.exec_count == 0 {
            0.0
        } else {
            self.exec_sum_s() / self.exec_count as f64
        }
    }

    /// Mean unit queue wait (seconds), 0 before the first completion.
    pub fn mean_wait_s(&self) -> f64 {
        if self.exec_count == 0 {
            0.0
        } else {
            self.wait_sum_s() / self.exec_count as f64
        }
    }

    /// Add another dashboard's counters into this one. Every field is an
    /// order-independent aggregate over disjoint entity sets (bucket counts,
    /// integer-ns sums, the exact capacity pool), so absorbing per-shard
    /// dashboards in any order reproduces the single-fold dashboard exactly.
    pub fn absorb(&mut self, other: &Dashboard) {
        for (a, b) in self
            .units_by_state
            .iter_mut()
            .zip(other.units_by_state.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .pilots_by_state
            .iter_mut()
            .zip(other.pilots_by_state.iter())
        {
            *a += b;
        }
        self.total_cores += other.total_cores;
        self.free_cores += other.free_cores;
        self.exec_count += other.exec_count;
        self.exec_sum_ns = self.exec_sum_ns.saturating_add(other.exec_sum_ns);
        self.wait_sum_ns = self.wait_sum_ns.saturating_add(other.wait_sum_ns);
    }
}

impl Default for Dashboard {
    fn default() -> Self {
        Dashboard::new()
    }
}

/// Continuity token: the exact replay position a table set corresponds to.
/// A materializer that restarts from a published `(tables, token)` pair
/// fetches each partition from `offsets[p]` onward and reproduces the
/// unkilled fold bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ContinuityToken {
    /// Next offset to fetch, per partition of the projection topic.
    pub offsets: Vec<u64>,
    /// Total events folded into the tables this token describes.
    pub events_applied: u64,
    /// Publication counter (monotone per materializer incarnation chain).
    pub version: u64,
}

impl ContinuityToken {
    /// Compact binary encoding (LE): partition count, offsets,
    /// events_applied, version.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.offsets.len() + 16);
        out.extend_from_slice(&(self.offsets.len() as u64).to_le_bytes());
        for o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&self.events_applied.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out
    }

    /// Inverse of [`encode`](Self::encode). Returns `None` on truncation.
    pub fn decode(buf: &[u8]) -> Option<ContinuityToken> {
        let mut r = buf;
        let mut u64_at = move || -> Option<u64> {
            if r.len() < 8 {
                return None;
            }
            let (head, tail) = r.split_at(8);
            r = tail;
            let mut b = [0u8; 8];
            b.copy_from_slice(head);
            Some(u64::from_le_bytes(b))
        };
        let n = u64_at()? as usize;
        if n > (1 << 20) {
            return None;
        }
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            offsets.push(u64_at()?);
        }
        Some(ContinuityToken {
            offsets,
            events_applied: u64_at()?,
            version: u64_at()?,
        })
    }
}

/// The full materialized projection: unit table, pilot table, dashboard,
/// plus the continuity bookkeeping that makes restart exactly-once.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct QueryTables {
    units: PMap<UnitRow>,
    pilots: BTreeMap<u64, PilotRow>,
    dashboard: Dashboard,
    /// Next offset to fetch, per partition (the fold position).
    pub offsets: Vec<u64>,
    /// Total events folded in.
    pub events_applied: u64,
    /// Publication counter; bumped by the materializer on publish, not here.
    pub version: u64,
}

impl QueryTables {
    /// Empty tables positioned at offset 0 of `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        QueryTables {
            units: PMap::default(),
            pilots: BTreeMap::new(),
            dashboard: Dashboard::new(),
            offsets: vec![0; partitions],
            events_applied: 0,
            version: 0,
        }
    }

    /// Fold one event in. Pure and deterministic: the same event sequence
    /// always yields the same tables (see [`digest`](Self::digest)).
    pub fn apply(&mut self, ev: &ProjEvent) {
        match *ev {
            ProjEvent::Pilot { pilot, state, t_s } => {
                // Invariant: every known row is counted in exactly the bucket
                // of its current state. New rows enter the `New` bucket, then
                // every transition moves one count prev -> next.
                let pilots_by_state = &mut self.dashboard.pilots_by_state;
                let row = self.pilots.entry(pilot.0).or_insert_with(|| {
                    pilots_by_state[pilot_state_code(PilotState::New) as usize] += 1;
                    PilotRow {
                        state: PilotState::New,
                        free_cores: 0,
                        total_cores: 0,
                        event_t_s: t_s,
                    }
                });
                let prev = row.state;
                pilots_by_state[pilot_state_code(prev) as usize] =
                    pilots_by_state[pilot_state_code(prev) as usize].saturating_sub(1);
                PilotState::publish(&mut row.state, state);
                row.event_t_s = t_s;
                pilots_by_state[pilot_state_code(state) as usize] += 1;
                // Invariant: the capacity pool is exactly the sum of cores of
                // non-terminal rows. Terminal pilots stop contributing
                // whatever the last capacity event said; a row observed
                // leaving a terminal state (mirrors fold unchecked sequences)
                // re-contributes, keeping the sum exact in both directions —
                // exactness is what makes the fold order-independent across
                // partitions.
                if state.is_terminal() && !prev.is_terminal() {
                    self.dashboard.total_cores = self
                        .dashboard
                        .total_cores
                        .saturating_sub(row.total_cores as u64);
                    self.dashboard.free_cores = self
                        .dashboard
                        .free_cores
                        .saturating_sub(row.free_cores as u64);
                } else if !state.is_terminal() && prev.is_terminal() {
                    self.dashboard.total_cores += row.total_cores as u64;
                    self.dashboard.free_cores += row.free_cores as u64;
                }
            }
            ProjEvent::PilotCapacity {
                pilot,
                free_cores,
                total_cores,
                t_s,
            } => {
                let pilots_by_state = &mut self.dashboard.pilots_by_state;
                let row = self.pilots.entry(pilot.0).or_insert_with(|| {
                    pilots_by_state[pilot_state_code(PilotState::New) as usize] += 1;
                    PilotRow {
                        state: PilotState::New,
                        free_cores: 0,
                        total_cores: 0,
                        event_t_s: t_s,
                    }
                });
                if !row.state.is_terminal() {
                    self.dashboard.total_cores = self
                        .dashboard
                        .total_cores
                        .saturating_sub(row.total_cores as u64)
                        + total_cores as u64;
                    self.dashboard.free_cores = self
                        .dashboard
                        .free_cores
                        .saturating_sub(row.free_cores as u64)
                        + free_cores as u64;
                }
                row.free_cores = free_cores;
                row.total_cores = total_cores;
                row.event_t_s = t_s;
            }
            ProjEvent::Unit {
                unit,
                state,
                pilot,
                t_s,
            } => {
                let units_by_state = &mut self.dashboard.units_by_state;
                let row = self.units.get_or_insert_with(unit.0, || {
                    units_by_state[unit_state_code(UnitState::New) as usize] += 1;
                    UnitRow {
                        state: UnitState::New,
                        pilot: None,
                        event_t_s: t_s,
                        wait_ns: 0,
                        exec_ns: 0,
                        has_metric: false,
                    }
                });
                let prev = row.state;
                units_by_state[unit_state_code(prev) as usize] =
                    units_by_state[unit_state_code(prev) as usize].saturating_sub(1);
                UnitState::publish(&mut row.state, state);
                if pilot.is_some() {
                    row.pilot = pilot;
                } else if state == UnitState::Pending {
                    // Re-queued (retry / pilot crash): the old binding is void.
                    row.pilot = None;
                }
                row.event_t_s = t_s;
                units_by_state[unit_state_code(state) as usize] += 1;
            }
            ProjEvent::UnitMetric {
                unit,
                wait_s,
                exec_s,
                t_s,
            } => {
                // Metrics are upserts: the row stores the unit's *latest*
                // wait/exec and the dashboard sums are maintained as
                // Σ latest-per-unit (subtract the old contribution, add the
                // new). A compacted topic retains exactly the newest metric
                // event per unit, so its fold lands on the same row and the
                // same sums as the full history.
                let units_by_state = &mut self.dashboard.units_by_state;
                let row = self.units.get_or_insert_with(unit.0, || {
                    units_by_state[unit_state_code(UnitState::New) as usize] += 1;
                    UnitRow {
                        state: UnitState::New,
                        pilot: None,
                        event_t_s: t_s,
                        wait_ns: 0,
                        exec_ns: 0,
                        has_metric: false,
                    }
                });
                let (wait_ns, exec_ns) = (secs_to_ns(wait_s), secs_to_ns(exec_s));
                if row.has_metric {
                    self.dashboard.exec_sum_ns = self
                        .dashboard
                        .exec_sum_ns
                        .saturating_sub(row.exec_ns)
                        .saturating_add(exec_ns);
                    self.dashboard.wait_sum_ns = self
                        .dashboard
                        .wait_sum_ns
                        .saturating_sub(row.wait_ns)
                        .saturating_add(wait_ns);
                } else {
                    row.has_metric = true;
                    self.dashboard.exec_count += 1;
                    self.dashboard.exec_sum_ns = self.dashboard.exec_sum_ns.saturating_add(exec_ns);
                    self.dashboard.wait_sum_ns = self.dashboard.wait_sum_ns.saturating_add(wait_ns);
                }
                row.wait_ns = wait_ns;
                row.exec_ns = exec_ns;
                row.event_t_s = t_s;
            }
        }
        self.events_applied += 1;
    }

    /// Latest state of a unit, if any event for it has been observed.
    pub fn unit(&self, id: UnitId) -> Option<&UnitRow> {
        self.units.get(id.0)
    }

    /// Latest state + capacity of a pilot.
    pub fn pilot(&self, id: PilotId) -> Option<&PilotRow> {
        self.pilots.get(&id.0)
    }

    /// The unit table, ordered by id.
    pub fn units(&self) -> impl Iterator<Item = (UnitId, &UnitRow)> {
        self.units.iter().map(|(k, v)| (UnitId(k), v))
    }

    /// The pilot table, ordered by id.
    pub fn pilots(&self) -> impl Iterator<Item = (PilotId, &PilotRow)> {
        self.pilots.iter().map(|(&k, v)| (PilotId(k), v))
    }

    /// Number of known units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Number of known pilots.
    pub fn pilot_count(&self) -> usize {
        self.pilots.len()
    }

    /// The pre-aggregated dashboard.
    pub fn dashboard(&self) -> &Dashboard {
        &self.dashboard
    }

    /// The continuity token describing this table set's replay position.
    pub fn token(&self) -> ContinuityToken {
        ContinuityToken {
            offsets: self.offsets.clone(),
            events_applied: self.events_applied,
            version: self.version,
        }
    }

    /// Order-stable FNV-1a digest of all materialized data + fold position,
    /// excluding `version`: a resumed fold must reproduce the same digest as
    /// an uninterrupted one even though publication counts differ.
    pub fn digest(&self) -> u64 {
        self.digest_impl(true)
    }

    /// [`digest`](Self::digest) without the fold position (offsets and
    /// `events_applied`): the *data*-equivalence check. Two folds that saw
    /// different event streams converging on the same rows — the canonical
    /// case being a compacted-topic bootstrap (superseded events skipped)
    /// versus a full-history replay — hash identically here while their
    /// positional digests legitimately differ.
    pub fn data_digest(&self) -> u64 {
        self.digest_impl(false)
    }

    fn digest_impl(&self, include_position: bool) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (id, r) in self.units.iter() {
            mix(&id.to_le_bytes());
            mix(&[unit_state_code(r.state)]);
            match r.pilot {
                Some(p) => {
                    mix(&[1]);
                    mix(&p.0.to_le_bytes());
                }
                None => mix(&[0]),
            }
            mix(&r.event_t_s.to_bits().to_le_bytes());
            mix(&r.wait_ns.to_le_bytes());
            mix(&r.exec_ns.to_le_bytes());
            mix(&[r.has_metric as u8]);
        }
        for (id, r) in &self.pilots {
            mix(&id.to_le_bytes());
            mix(&[pilot_state_code(r.state)]);
            mix(&r.free_cores.to_le_bytes());
            mix(&r.total_cores.to_le_bytes());
            mix(&r.event_t_s.to_bits().to_le_bytes());
        }
        let d = &self.dashboard;
        for c in d.units_by_state.iter().chain(d.pilots_by_state.iter()) {
            mix(&c.to_le_bytes());
        }
        mix(&d.total_cores.to_le_bytes());
        mix(&d.free_cores.to_le_bytes());
        mix(&d.exec_count.to_le_bytes());
        mix(&d.exec_sum_ns.to_le_bytes());
        mix(&d.wait_sum_ns.to_le_bytes());
        if include_position {
            for o in &self.offsets {
                mix(&o.to_le_bytes());
            }
            mix(&self.events_applied.to_le_bytes());
        }
        h
    }

    /// Compose per-shard table sets into the global view. `parts[s]` is the
    /// snapshot of shard `s`; `partition_owner[p]` names the shard that owns
    /// partition `p` (whose `offsets[p]` is authoritative).
    ///
    /// Keyed routing sends every event of one entity to one partition, and a
    /// shard plan assigns each partition to exactly one shard — so the
    /// shards' unit/pilot maps are disjoint and the merge is a plain union.
    /// Each shard's unit table is already sorted, so the union is one
    /// ordered k-way pass that fills the merged table left to right. An id
    /// present in two shards (a routing bug, not a valid input) resolves to
    /// the later shard's row.
    /// Dashboard counters are order-independent aggregates (bucket counts,
    /// integer-ns sums, the exact capacity-pool invariant), so summing the
    /// per-shard values reproduces exactly what a single fold over all
    /// partitions would have computed: the merged [`digest`](Self::digest)
    /// is bit-identical to a single-shard fold at the same offsets.
    ///
    /// `version` is summed, making the merged version a monotone publication
    /// counter across the whole shard set.
    pub fn merge(parts: &[&QueryTables], partition_owner: &[usize]) -> QueryTables {
        let mut out = QueryTables::new(partition_owner.len());
        let mut heads: Vec<_> = parts.iter().map(|t| t.units.iter().peekable()).collect();
        out.units = PMap::from_sorted(std::iter::from_fn(|| {
            // The smallest head; of equal ids the earlier shard goes first,
            // so the later shard's row is the one `from_sorted` keeps.
            let (_, next) = heads
                .iter_mut()
                .filter_map(|h| {
                    let id = h.peek()?.0;
                    Some((id, h))
                })
                .min_by_key(|&(id, _)| id)?;
            next.next().map(|(id, r)| (id, *r))
        }));
        for t in parts {
            for (id, r) in &t.pilots {
                out.pilots.insert(*id, *r);
            }
            out.dashboard.absorb(&t.dashboard);
            out.events_applied += t.events_applied;
            out.version += t.version;
        }
        for (p, &owner) in partition_owner.iter().enumerate() {
            if let Some(t) = parts.get(owner) {
                out.offsets[p] = t.offsets.get(p).copied().unwrap_or(0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_ev(id: u64, state: UnitState, pilot: Option<u64>, t: f64) -> ProjEvent {
        ProjEvent::Unit {
            unit: UnitId(id),
            state,
            pilot: pilot.map(PilotId),
            t_s: t,
        }
    }

    #[test]
    fn unit_lifecycle_keeps_dashboard_counts_consistent() {
        let mut t = QueryTables::new(1);
        t.apply(&unit_ev(1, UnitState::Pending, None, 0.0));
        t.apply(&unit_ev(2, UnitState::Pending, None, 0.1));
        assert_eq!(t.dashboard().units_in(UnitState::Pending), 2);
        t.apply(&unit_ev(1, UnitState::Assigned, Some(7), 0.2));
        t.apply(&unit_ev(1, UnitState::Running, Some(7), 0.3));
        t.apply(&unit_ev(1, UnitState::Done, Some(7), 0.9));
        assert_eq!(t.dashboard().units_in(UnitState::Pending), 1);
        assert_eq!(t.dashboard().units_in(UnitState::Done), 1);
        assert_eq!(t.dashboard().open_units(), 1);
        let row = t.unit(UnitId(1)).expect("row");
        assert_eq!(row.state, UnitState::Done);
        assert_eq!(row.pilot, Some(PilotId(7)));
        assert_eq!(t.unit_count(), 2);
        assert_eq!(t.events_applied, 5);
    }

    #[test]
    fn requeue_clears_stale_binding() {
        let mut t = QueryTables::new(1);
        t.apply(&unit_ev(1, UnitState::Pending, None, 0.0));
        t.apply(&unit_ev(1, UnitState::Assigned, Some(3), 0.1));
        assert_eq!(t.unit(UnitId(1)).expect("row").pilot, Some(PilotId(3)));
        // Pilot crash re-queues the unit: binding voided.
        t.apply(&unit_ev(1, UnitState::Pending, None, 0.2));
        assert_eq!(t.unit(UnitId(1)).expect("row").pilot, None);
    }

    #[test]
    fn capacity_tracks_live_pilots_only() {
        let mut t = QueryTables::new(1);
        let p = PilotId(1);
        t.apply(&ProjEvent::Pilot {
            pilot: p,
            state: PilotState::Pending,
            t_s: 0.0,
        });
        t.apply(&ProjEvent::Pilot {
            pilot: p,
            state: PilotState::Active,
            t_s: 0.1,
        });
        t.apply(&ProjEvent::PilotCapacity {
            pilot: p,
            free_cores: 8,
            total_cores: 8,
            t_s: 0.1,
        });
        t.apply(&ProjEvent::PilotCapacity {
            pilot: p,
            free_cores: 5,
            total_cores: 8,
            t_s: 0.2,
        });
        assert_eq!(t.dashboard().total_cores, 8);
        assert_eq!(t.dashboard().free_cores, 5);
        assert!((t.dashboard().utilization() - 3.0 / 8.0).abs() < 1e-12);
        assert!((t.pilot(p).expect("row").utilization() - 3.0 / 8.0).abs() < 1e-12);
        // Pilot dies: its cores leave the pool entirely.
        t.apply(&ProjEvent::Pilot {
            pilot: p,
            state: PilotState::Failed,
            t_s: 0.3,
        });
        assert_eq!(t.dashboard().total_cores, 0);
        assert_eq!(t.dashboard().free_cores, 0);
        assert_eq!(t.dashboard().pilots_in(PilotState::Failed), 1);
        assert_eq!(t.dashboard().pilots_in(PilotState::Active), 0);
        // Late capacity echo for a dead pilot must not resurrect capacity.
        t.apply(&ProjEvent::PilotCapacity {
            pilot: p,
            free_cores: 8,
            total_cores: 8,
            t_s: 0.3,
        });
        assert_eq!(t.dashboard().total_cores, 0);
    }

    #[test]
    fn metrics_accumulate_means() {
        let mut t = QueryTables::new(1);
        assert_eq!(t.dashboard().mean_exec_s(), 0.0);
        t.apply(&ProjEvent::UnitMetric {
            unit: UnitId(1),
            wait_s: 1.0,
            exec_s: 2.0,
            t_s: 3.0,
        });
        t.apply(&ProjEvent::UnitMetric {
            unit: UnitId(2),
            wait_s: 3.0,
            exec_s: 4.0,
            t_s: 7.0,
        });
        assert_eq!(t.dashboard().exec_count, 2);
        assert!((t.dashboard().mean_exec_s() - 3.0).abs() < 1e-12);
        assert!((t.dashboard().mean_wait_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metric_upsert_matches_compacted_fold() {
        // Full history: three metric events for unit 1, one for unit 2.
        let mut full = QueryTables::new(1);
        for (w, e, t) in [(1.0, 2.0, 3.0), (0.5, 0.25, 4.0), (2.0, 8.0, 5.0)] {
            full.apply(&ProjEvent::UnitMetric {
                unit: UnitId(1),
                wait_s: w,
                exec_s: e,
                t_s: t,
            });
        }
        full.apply(&ProjEvent::UnitMetric {
            unit: UnitId(2),
            wait_s: 1.0,
            exec_s: 1.0,
            t_s: 6.0,
        });
        // Sums are Σ latest-per-unit, count is units-with-metrics.
        assert_eq!(full.dashboard().exec_count, 2);
        assert!((full.dashboard().exec_sum_s() - 9.0).abs() < 1e-9);
        assert!((full.dashboard().wait_sum_s() - 3.0).abs() < 1e-9);
        let row = full.unit(UnitId(1)).expect("row");
        assert!(row.has_metric);
        assert_eq!(row.exec_ns, 8_000_000_000);
        // Compacted view: only the latest metric per unit retained. The
        // *data* converges bit-identically even though the event streams
        // (and so fold positions) differ.
        let mut compacted = QueryTables::new(1);
        compacted.apply(&ProjEvent::UnitMetric {
            unit: UnitId(1),
            wait_s: 2.0,
            exec_s: 8.0,
            t_s: 5.0,
        });
        compacted.apply(&ProjEvent::UnitMetric {
            unit: UnitId(2),
            wait_s: 1.0,
            exec_s: 1.0,
            t_s: 6.0,
        });
        assert_eq!(full.data_digest(), compacted.data_digest());
        assert_ne!(full.digest(), compacted.digest(), "positions differ");
    }

    #[test]
    fn merge_reproduces_single_fold() {
        // Partition 0 → shard 0, partition 1 → shard 1. Entities are split
        // by partition exactly as keyed routing would split them.
        let p0_events = [
            unit_ev(1, UnitState::Pending, None, 0.0),
            unit_ev(1, UnitState::Running, Some(4), 0.2),
            ProjEvent::UnitMetric {
                unit: UnitId(1),
                wait_s: 0.5,
                exec_s: 1.5,
                t_s: 0.9,
            },
        ];
        let p1_events = [
            ProjEvent::Pilot {
                pilot: PilotId(4),
                state: PilotState::Active,
                t_s: 0.1,
            },
            ProjEvent::PilotCapacity {
                pilot: PilotId(4),
                free_cores: 6,
                total_cores: 8,
                t_s: 0.15,
            },
            unit_ev(2, UnitState::Done, Some(4), 0.4),
        ];
        // Single fold over both partitions.
        let mut single = QueryTables::new(2);
        for e in p0_events.iter().chain(p1_events.iter()) {
            single.apply(e);
        }
        single.offsets = vec![3, 3];
        // Per-shard folds over their own partitions only.
        let mut s0 = QueryTables::new(2);
        for e in &p0_events {
            s0.apply(e);
        }
        s0.offsets = vec![3, 0];
        s0.version = 2;
        let mut s1 = QueryTables::new(2);
        for e in &p1_events {
            s1.apply(e);
        }
        s1.offsets = vec![0, 3];
        s1.version = 5;
        let merged = QueryTables::merge(&[&s0, &s1], &[0, 1]);
        assert_eq!(merged.digest(), single.digest());
        assert_eq!(merged.version, 7, "versions sum monotonically");
        assert_eq!(merged.dashboard().total_cores, 8);
        assert_eq!(merged.dashboard().free_cores, 6);
        assert_eq!(merged.unit_count(), 2);
        assert_eq!(merged.offsets, vec![3, 3]);
    }

    #[test]
    fn merge_keeps_the_later_shards_row_for_a_duplicate_id() {
        // Two shards both holding unit 5 is a routing bug; the merge must
        // stay total and deterministic: last writer (later shard) wins.
        let mut s0 = QueryTables::new(2);
        let mut s1 = QueryTables::new(2);
        for id in [1, 5, 9] {
            s0.apply(&unit_ev(id, UnitState::Pending, None, 0.0));
        }
        for id in [2, 5, 7] {
            s1.apply(&unit_ev(id, UnitState::Done, Some(3), 1.0));
        }
        let merged = QueryTables::merge(&[&s0, &s1], &[0, 1]);
        let ids: Vec<u64> = merged.units().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 5, 7, 9]);
        assert_eq!(merged.unit(UnitId(5)), s1.unit(UnitId(5)));
        assert_eq!(merged.unit(UnitId(9)), s0.unit(UnitId(9)));
    }

    #[test]
    fn a_publication_shares_what_the_fold_did_not_touch() {
        // The cost of publishing, as a count: what a clone copies and what
        // two successive clones have in common. Nothing here is timed.
        let mut t = QueryTables::new(1);
        for id in 0..20_000u64 {
            t.apply(&unit_ev(id, UnitState::Pending, None, 0.0));
        }
        let first = t.clone();
        let (shared, chunks) = first.units.shared_chunks(&t.units);
        assert_eq!(shared, chunks, "cloning an untouched table copies no rows");
        // One publication interval: 40 updates to distinct, scattered units.
        for i in 0..40u64 {
            let id = (i * 7919 + 13) % 20_000;
            t.apply(&unit_ev(id, UnitState::Done, Some(1), 1.0));
        }
        let second = t.clone();
        let (shared, chunks) = second.units.shared_chunks(&first.units);
        assert!(
            shared * 100 >= chunks * 85,
            "two publications 40 row updates apart share {shared} of {chunks} chunks"
        );
        assert!(chunks - shared <= 40, "at most one chunk copied per row");
        assert_eq!(
            first.unit(UnitId(13)).map(|r| r.state),
            Some(UnitState::Pending)
        );
        assert_eq!(
            second.unit(UnitId(13)).map(|r| r.state),
            Some(UnitState::Done)
        );
    }

    #[test]
    fn digest_is_replay_stable_and_version_blind() {
        let evs = [
            unit_ev(1, UnitState::Pending, None, 0.0),
            unit_ev(2, UnitState::Pending, None, 0.1),
            unit_ev(1, UnitState::Assigned, Some(4), 0.2),
            ProjEvent::Pilot {
                pilot: PilotId(4),
                state: PilotState::Active,
                t_s: 0.2,
            },
            unit_ev(1, UnitState::Running, Some(4), 0.3),
        ];
        let mut a = QueryTables::new(2);
        let mut b = QueryTables::new(2);
        for e in &evs {
            a.apply(e);
        }
        for e in &evs {
            b.apply(e);
        }
        b.version = 99; // publication count must not affect the digest
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.apply(&unit_ev(1, UnitState::Done, Some(4), 0.9));
        assert_ne!(a.digest(), c.digest());
        let mut d = a.clone();
        d.offsets[1] = 17; // fold position IS part of the digest
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn continuity_token_roundtrips() {
        let tok = ContinuityToken {
            offsets: vec![3, 0, 991],
            events_applied: 994,
            version: 12,
        };
        assert_eq!(ContinuityToken::decode(&tok.encode()), Some(tok.clone()));
        assert_eq!(ContinuityToken::decode(&[1, 2, 3]), None);
        let mut short = tok.encode();
        short.truncate(short.len() - 4);
        assert_eq!(ContinuityToken::decode(&short), None);
    }
}
