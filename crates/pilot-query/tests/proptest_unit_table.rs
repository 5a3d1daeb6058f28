//! Properties of the unit table behind [`QueryTables`], checked through the
//! public surface only (`apply`, `unit`, `units`, `unit_count`, `clone`,
//! `digest`): the table is a structurally shared sorted map, so a published
//! clone shares row storage with the working tables and with every other
//! clone, and the fold copies a chunk of rows the first time it writes into
//! one that a clone still holds.
//!
//! 1. **Model property.** Random interleavings of insert / update /
//!    clone-then-keep-folding / drop-a-clone against a `BTreeMap` model:
//!    point reads, ordered iteration and the row count agree after every
//!    step, and every clone still equals the model *as of when it was taken*
//!    — whatever the fold wrote, split or shifted afterwards.
//! 2. **Equality is layout-independent.** The same rows inserted in
//!    ascending and in shuffled id order end in different chunk layouts
//!    (different split histories) and must compare equal and hash equal.
//! 3. **Golden digests.** `digest()` and `data_digest()` of one fixed event
//!    sequence are pinned to the values the `BTreeMap`-backed tables
//!    produced, so a persisted or compared digest never changes meaning.

use pilot_core::events::{pilot_state_from_code, unit_state_from_code, ProjEvent};
use pilot_core::ids::{PilotId, UnitId};
use pilot_query::{QueryTables, UnitRow};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A unit state event and the row it must leave behind (a `Unit` event with
/// a pilot overwrites every field it carries; metric fields stay zero).
fn unit_event(id: u64, code: u8, pilot: u64, t: u32) -> (ProjEvent, UnitRow) {
    let state = unit_state_from_code(1 + code % 7).expect("unit code in range");
    let t_s = f64::from(t) * 0.25;
    let ev = ProjEvent::Unit {
        unit: UnitId(id),
        state,
        pilot: Some(PilotId(pilot)),
        t_s,
    };
    let row = UnitRow {
        state,
        pilot: Some(PilotId(pilot)),
        event_t_s: t_s,
        wait_ns: 0,
        exec_ns: 0,
        has_metric: false,
    };
    (ev, row)
}

/// SplitMix64: spreads a small selector over the whole id space.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn assert_matches_model(t: &QueryTables, model: &BTreeMap<u64, UnitRow>, what: &str) {
    assert_eq!(t.unit_count(), model.len(), "{what}: row count");
    let got: Vec<(u64, UnitRow)> = t.units().map(|(id, r)| (id.0, *r)).collect();
    let want: Vec<(u64, UnitRow)> = model.iter().map(|(&id, &r)| (id, r)).collect();
    assert_eq!(got, want, "{what}: ordered iteration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unit_table_matches_model_and_clones_never_change(
        // `(op, selector, state code, pilot, time)`
        ops in proptest::collection::vec(
            (0u8..10, 0u64..1_000_000, 0u8..7, 0u64..6, 0u32..4000),
            150..700,
        ),
        // 0: fresh ids ascend, 1: descend from u64::MAX, 2: anywhere
        id_order in 0u8..3,
    ) {
        let mut t = QueryTables::new(1);
        let mut model: BTreeMap<u64, UnitRow> = BTreeMap::new();
        // Clones kept alive, each with the model and digest of its moment.
        let mut kept: Vec<(QueryTables, BTreeMap<u64, UnitRow>, u64)> = Vec::new();
        let mut fresh = 0u64;
        for (step, &(op, sel, code, pilot, time)) in ops.iter().enumerate() {
            match op {
                // Insert under a fresh id (the two ends of the id space
                // first), or update a row that exists.
                0..=6 => {
                    let id = if op <= 3 || model.is_empty() {
                        fresh += 1;
                        match (id_order, fresh) {
                            (0, n) => (n - 1) * 3,
                            (1, n) => u64::MAX - (n - 1) * 3,
                            (_, 1) => 0,
                            (_, 2) => u64::MAX,
                            (_, _) => mix(sel),
                        }
                    } else {
                        let nth = (sel % model.len() as u64) as usize;
                        *model.keys().nth(nth).expect("nth < len")
                    };
                    let (ev, row) = unit_event(id, code, pilot, time);
                    t.apply(&ev);
                    model.insert(id, row);
                    prop_assert_eq!(t.unit(UnitId(id)), Some(&row), "step {}: point read", step);
                }
                // Publish: clone, keep the clone, keep folding.
                7 | 8 => kept.push((t.clone(), model.clone(), t.digest())),
                // A reader lets go of its snapshot.
                _ => {
                    if !kept.is_empty() {
                        let (snap, then, digest) = kept.swap_remove((sel % kept.len() as u64) as usize);
                        assert_matches_model(&snap, &then, "dropped clone");
                        prop_assert_eq!(snap.digest(), digest);
                    }
                }
            }
            assert_matches_model(&t, &model, "working table");
            prop_assert_eq!(t.unit(UnitId(mix(sel) | 1)).copied(), model.get(&(mix(sel) | 1)).copied());
        }
        for (snap, then, digest) in &kept {
            assert_matches_model(snap, then, "kept clone");
            prop_assert_eq!(snap.digest(), *digest, "a clone's digest moved after it was taken");
        }
    }
}

#[test]
fn equality_and_digests_ignore_insertion_order() {
    let ids: Vec<u64> = (0..1_000u64).map(|i| i * 7).collect();
    let mut shuffled = ids.clone();
    shuffled.sort_by_key(|&id| mix(id));
    let mut descending = ids.clone();
    descending.reverse();
    let fold = |order: &[u64]| {
        let mut t = QueryTables::new(2);
        for &id in order {
            let (ev, _) = unit_event(id, (id % 7) as u8, id % 5, (id % 97) as u32);
            t.apply(&ev);
        }
        t
    };
    let ascending = fold(&ids);
    for other in [fold(&shuffled), fold(&descending)] {
        assert_eq!(ascending, other);
        assert_eq!(ascending.digest(), other.digest());
        assert_eq!(ascending.data_digest(), other.data_digest());
    }
    // ... and it is still an equality: one different row breaks it.
    let mut touched = fold(&shuffled);
    touched.apply(&unit_event(7 * 500, 0, 1, 1).0);
    assert_ne!(ascending.data_digest(), touched.data_digest());
    touched.events_applied = ascending.events_applied;
    assert_ne!(ascending, touched);
}

/// One fixed sequence over every event kind: ids at both ends of the id
/// space, enough units to split chunks, pilots, metrics, re-queues.
fn golden_events() -> Vec<ProjEvent> {
    (0..220u64)
        .map(|i| {
            let r = mix(i);
            let unit = UnitId(match i % 11 {
                0 => 0,
                1 => u64::MAX,
                _ => r % 150,
            });
            let pilot = PilotId(r % 5);
            let t_s = i as f64 * 0.125;
            match r % 8 {
                0 => ProjEvent::Pilot {
                    pilot,
                    state: pilot_state_from_code(1 + (r >> 8) as u8 % 5).expect("pilot code"),
                    t_s,
                },
                1 => ProjEvent::PilotCapacity {
                    pilot,
                    free_cores: (r >> 8) as u32 % 9,
                    total_cores: 8,
                    t_s,
                },
                2 | 3 => ProjEvent::UnitMetric {
                    unit,
                    wait_s: ((r >> 8) % 1000) as f64 / 64.0,
                    exec_s: ((r >> 20) % 1000) as f64 / 32.0,
                    t_s,
                },
                _ => ProjEvent::Unit {
                    unit,
                    state: unit_state_from_code(1 + (r >> 8) as u8 % 7).expect("unit code"),
                    pilot: (!(r >> 16).is_multiple_of(3)).then_some(pilot),
                    t_s,
                },
            }
        })
        .collect()
}

#[test]
fn digests_of_a_fixed_sequence_are_pinned() {
    let mut t = QueryTables::new(3);
    for (i, ev) in golden_events().iter().enumerate() {
        t.apply(ev);
        t.offsets[i % 3] += 1;
    }
    assert_eq!(t.events_applied, 220);
    assert_eq!(
        (t.unit_count(), t.pilot_count()),
        (GOLDEN_UNITS, GOLDEN_PILOTS)
    );
    assert_eq!(t.digest(), GOLDEN_DIGEST, "digest() changed meaning");
    assert_eq!(
        t.data_digest(),
        GOLDEN_DATA_DIGEST,
        "data_digest() changed meaning"
    );
}

// Computed at the parent commit (0ee43af, `units: BTreeMap<u64, UnitRow>`).
const GOLDEN_UNITS: usize = 85;
const GOLDEN_PILOTS: usize = 5;
const GOLDEN_DIGEST: u64 = 0x953b_3f73_567b_781b;
const GOLDEN_DATA_DIGEST: u64 = 0x5be8_1b30_eb44_9b2d;
