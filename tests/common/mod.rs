//! Helpers shared by the root integration tests: folding a run's
//! `ProjEvent`s through the read plane's tables, as a materializer would.

use pilot_abstraction::core::events::{unit_state_code, ProjEvent, UNIT_STATE_COUNT};
use pilot_abstraction::core::sim::SimReport;
use pilot_abstraction::core::state::UnitState;
use pilot_abstraction::query::QueryTables;
use std::collections::HashSet;

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
/// state, the per-state unit counts, and the execution metrics.
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
    let done = report.done_unit_times();
    assert_eq!(
        dash.exec_count,
        done.len() as u64,
        "one metric per done unit"
    );
    let exec_s: f64 = done.iter().filter_map(|t| t.execution()).sum();
    assert!(
        (dash.exec_sum_s() - exec_s).abs() < 1e-6,
        "execution-time sum: folded {} vs report {exec_s}",
        dash.exec_sum_s()
    );
}
