//! Helpers shared by the root integration tests: folding a run's
//! `ProjEvent`s through the read plane's tables, as a materializer would,
//! and digesting a DES run so a scenario's outcome can be pinned.

use pilot_abstraction::core::events::{unit_state_code, ProjEvent, UNIT_STATE_COUNT};
use pilot_abstraction::core::metrics::UnitTimes;
use pilot_abstraction::core::sim::SimReport;
use pilot_abstraction::core::state::UnitState;
use pilot_abstraction::query::QueryTables;
use std::collections::HashSet;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest of everything a DES run decided: each unit's state, pilot
/// and timestamps, every event's encoding in order, and the reliability and
/// binding counters. Floats enter as their bit patterns, so a digest holds
/// only if every decision and every sum is bit-identical.
pub(crate) fn report_digest(report: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let opt = |t: Option<f64>| t.map_or(u64::MAX, f64::to_bits);
    for u in &report.units {
        h = fnv1a(h, &u.unit.0.to_le_bytes());
        h = fnv1a(h, &[unit_state_code(u.state)]);
        h = fnv1a(h, &u.pilot.map_or(u64::MAX, |p| p.0).to_le_bytes());
        let t = u.times;
        for x in [
            t.submitted.to_bits(),
            opt(t.bound),
            opt(t.started),
            opt(t.finished),
        ] {
            h = fnv1a(h, &x.to_le_bytes());
        }
    }
    for ev in &report.events {
        h = fnv1a(h, &ev.encode());
    }
    // `Debug` prints every counter, floats in their shortest exact form.
    h = fnv1a(h, format!("{:?}", report.reliability).as_bytes());
    fnv1a(h, format!("{:?}", report.bind).as_bytes())
}

/// Check a run against its pinned [`report_digest`].
pub(crate) fn assert_digest(report: &SimReport, pinned: u64) {
    let got = report_digest(report);
    assert_eq!(
        got, pinned,
        "report digest {got:#018x}, pinned {pinned:#018x}"
    );
}

/// Fold `events`, in order, into fresh tables.
pub(crate) fn fold(events: &[ProjEvent]) -> QueryTables {
    let mut tables = QueryTables::new(1);
    for ev in events {
        tables.apply(ev);
    }
    tables
}

/// Unit re-entries into `Pending`: every `Pending` after a unit's first.
/// Retries and rebinds both count.
pub(crate) fn requeues(events: &[ProjEvent]) -> usize {
    let mut seen = HashSet::new();
    events
        .iter()
        .filter(|ev| match ev {
            ProjEvent::Unit {
                unit,
                state: UnitState::Pending,
                ..
            } => !seen.insert(*unit),
            _ => false,
        })
        .count()
}

/// Fold a DES run's events and check that the tables say what its report
/// says: each submitted unit's state, each done unit's pilot, each pilot's
/// state, the per-state unit counts, and the wait and execution metrics.
pub(crate) fn assert_fold_matches(report: &SimReport) {
    let tables = fold(&report.events);
    let mut by_state = [0u64; UNIT_STATE_COUNT];
    let submitted: Vec<_> = report
        .units
        .iter()
        .filter(|u| u.state != UnitState::New)
        .collect();
    for u in &submitted {
        let row = tables
            .unit(u.unit)
            .unwrap_or_else(|| panic!("unit {} never folded", u.unit));
        assert_eq!(row.state, u.state, "unit {} state", u.unit);
        if u.state == UnitState::Done {
            assert_eq!(row.pilot, u.pilot, "unit {} pilot", u.unit);
        }
        by_state[unit_state_code(u.state) as usize] += 1;
    }
    assert_eq!(tables.unit_count(), submitted.len(), "folded units");
    for p in &report.pilots {
        let row = tables
            .pilot(p.pilot)
            .unwrap_or_else(|| panic!("pilot {} never folded", p.pilot));
        assert_eq!(row.state, p.state, "pilot {} state", p.pilot);
    }
    assert_eq!(tables.pilot_count(), report.pilots.len(), "folded pilots");
    let dash = tables.dashboard();
    assert_eq!(dash.units_by_state, by_state, "per-state unit counts");
    assert_metric_sums(&tables, &report.done_unit_times());
}

/// The folded `UnitMetric`s say what the done units' timestamps say: one
/// metric per unit, wait summed as submit → bind and execution as start →
/// finish, to 1e-6 s (the fold sums whole nanoseconds).
pub(crate) fn assert_metric_sums(tables: &QueryTables, done: &[UnitTimes]) {
    let dash = tables.dashboard();
    assert_eq!(
        dash.exec_count,
        done.len() as u64,
        "one metric per done unit"
    );
    let wait_s: f64 = done.iter().filter_map(|t| t.wait()).sum();
    assert!(
        (dash.wait_sum_s() - wait_s).abs() < 1e-6,
        "wait-time sum: folded {} vs report {wait_s}",
        dash.wait_sum_s()
    );
    let exec_s: f64 = done.iter().filter_map(|t| t.execution()).sum();
    assert!(
        (dash.exec_sum_s() - exec_s).abs() < 1e-6,
        "execution-time sum: folded {} vs report {exec_s}",
        dash.exec_sum_s()
    );
}
