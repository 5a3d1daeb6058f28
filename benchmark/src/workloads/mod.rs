//! The five workloads. Each takes a [`Plan`] and returns what it measured;
//! `README.md` says why each exists and which layers it leaves idle.

pub mod journey;
pub mod read_storm;
pub mod replicated_stream;
pub mod sim_campaign;

use crate::harness::{Outcome, Plan};

pub fn by_name(name: &str) -> Option<fn(&Plan) -> Outcome> {
    Some(match name {
        "unit_journey" => journey::unit_journey,
        "ensemble_burst" => journey::ensemble_burst,
        "replicated_stream" => replicated_stream::run,
        "read_storm" => read_storm::run,
        "sim_campaign" => sim_campaign::run,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded input of every workload, as bytes.
    fn inputs(seed: u64) -> Vec<u8> {
        let mut b = Vec::new();
        for due in journey::schedule(seed, 2.0, journey::JOURNEY_RATE_PER_S) {
            b.extend(due.to_bits().to_le_bytes());
        }
        b.extend(replicated_stream::template(seed));
        for k in 0..20 {
            for ev in read_storm::storm_batch(seed, 1_000, k) {
                b.extend(ev.encode());
            }
        }
        for op in read_storm::read_ops(seed, 1_000) {
            b.extend(op.to_le_bytes());
        }
        for due in read_storm::batch_dues(seed, 20) {
            b.extend(due.to_bits().to_le_bytes());
        }
        for i in 0..10 {
            b.extend(sim_campaign::cell_seed(seed, i).to_le_bytes());
        }
        b
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn open_loop_schedule_is_ascending_at_the_stated_rate() {
        let dues = journey::schedule(3, 2.0, 2_000.0);
        assert_eq!(dues.len(), 4_000);
        assert!(dues.windows(2).all(|w| w[0] < w[1]));
        assert!(dues.iter().all(|&d| (0.0..2.0).contains(&d)));
    }
}
