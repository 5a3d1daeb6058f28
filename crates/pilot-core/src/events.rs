//! Read-plane projection events.
//!
//! Every observable change in a pilot service — pilot state transitions,
//! pilot capacity changes, unit state transitions, per-unit timing metrics —
//! can be exported as a [`ProjEvent`] on a dedicated broker *projection
//! topic*. Materializers (the `pilot-query` crate) consume those topics into
//! query-optimized tables so that status reads never touch the owner's locks.
//!
//! The schema lives here, in `pilot-core`, because its producers (the thread
//! backend, the fabric controller, the DES backend) and the transport-facing
//! sink implementations depend on it; `pilot-streaming` depends on `pilot-core`,
//! so the broker-backed sink itself lives downstream in `pilot-query`.
//!
//! Events carry a compact, versionless binary encoding ([`ProjEvent::encode`]
//! / [`ProjEvent::decode`]) — fixed-width little-endian fields behind a one
//! byte tag — so a batch of transitions costs one `produce_batch` call and a
//! few hundred bytes, not a serde graph. [`ProjEvent::key`] returns the
//! entity id, which keyed partitioning maps to a stable partition: per-entity
//! event order is total within one partition, which is what the materializer
//! needs for exactly-once replay.
//!
// lint: deterministic — pure data + codec; no clocks, no I/O, no RNG.

use crate::ids::{PilotId, UnitId};
use crate::state::{PilotState, UnitState};

/// One read-plane event. Timestamps (`t_s`) are in the producer's own
/// timebase: wall-clock seconds since service start for the thread backend,
/// `tick * tick_s` virtual seconds for the fabric controller, virtual
/// seconds for the DES backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProjEvent {
    /// A pilot entered `state` at `t_s`.
    Pilot {
        pilot: PilotId,
        state: PilotState,
        t_s: f64,
    },
    /// A pilot's capacity changed (startup, bind, release, crash).
    PilotCapacity {
        pilot: PilotId,
        free_cores: u32,
        total_cores: u32,
        t_s: f64,
    },
    /// A unit entered `state` at `t_s`, bound to `pilot` if assigned.
    Unit {
        unit: UnitId,
        state: UnitState,
        pilot: Option<PilotId>,
        t_s: f64,
    },
    /// Timing metrics published when a unit completes.
    UnitMetric {
        unit: UnitId,
        wait_s: f64,
        exec_s: f64,
        t_s: f64,
    },
}

const TAG_PILOT: u8 = 1;
const TAG_PILOT_CAPACITY: u8 = 2;
const TAG_UNIT: u8 = 3;
const TAG_UNIT_METRIC: u8 = 4;

/// Why a payload failed to decode as a [`ProjEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventCodecError {
    /// Payload shorter than the tag demands.
    Truncated,
    /// Unknown event tag byte.
    UnknownTag(u8),
    /// State code outside the enum's range.
    UnknownState(u8),
}

impl std::fmt::Display for EventCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventCodecError::Truncated => write!(f, "truncated projection event"),
            EventCodecError::UnknownTag(t) => write!(f, "unknown projection event tag {t}"),
            EventCodecError::UnknownState(s) => write!(f, "unknown state code {s}"),
        }
    }
}

impl std::error::Error for EventCodecError {}

/// Stable wire/table code for a [`PilotState`] (also used as a dense array
/// index by projection dashboards).
pub fn pilot_state_code(s: PilotState) -> u8 {
    match s {
        PilotState::New => 0,
        PilotState::Pending => 1,
        PilotState::Active => 2,
        PilotState::Done => 3,
        PilotState::Canceled => 4,
        PilotState::Failed => 5,
    }
}

/// Inverse of [`pilot_state_code`].
pub fn pilot_state_from_code(c: u8) -> Result<PilotState, EventCodecError> {
    Ok(match c {
        0 => PilotState::New,
        1 => PilotState::Pending,
        2 => PilotState::Active,
        3 => PilotState::Done,
        4 => PilotState::Canceled,
        5 => PilotState::Failed,
        other => return Err(EventCodecError::UnknownState(other)),
    })
}

/// Number of distinct [`PilotState`] values (dashboard array width).
pub const PILOT_STATE_COUNT: usize = 6;

/// Stable wire/table code for a [`UnitState`].
pub fn unit_state_code(s: UnitState) -> u8 {
    match s {
        UnitState::New => 0,
        UnitState::Pending => 1,
        UnitState::Assigned => 2,
        UnitState::Staging => 3,
        UnitState::Running => 4,
        UnitState::Done => 5,
        UnitState::Failed => 6,
        UnitState::Canceled => 7,
    }
}

/// Inverse of [`unit_state_code`].
pub fn unit_state_from_code(c: u8) -> Result<UnitState, EventCodecError> {
    Ok(match c {
        0 => UnitState::New,
        1 => UnitState::Pending,
        2 => UnitState::Assigned,
        3 => UnitState::Staging,
        4 => UnitState::Running,
        5 => UnitState::Done,
        6 => UnitState::Failed,
        7 => UnitState::Canceled,
        other => return Err(EventCodecError::UnknownState(other)),
    })
}

/// Number of distinct [`UnitState`] values (dashboard array width).
pub const UNIT_STATE_COUNT: usize = 8;

impl ProjEvent {
    /// Partitioning key: the entity id. Keyed routing sends every event for
    /// one pilot/unit to the same partition, making per-entity order total.
    pub fn key(&self) -> u64 {
        match *self {
            ProjEvent::Pilot { pilot, .. } | ProjEvent::PilotCapacity { pilot, .. } => pilot.0,
            ProjEvent::Unit { unit, .. } | ProjEvent::UnitMetric { unit, .. } => unit.0,
        }
    }

    /// Compaction identity: the entity id tagged with the event *kind*.
    ///
    /// [`ProjEvent::key`] is the right routing key — every event of one
    /// entity must land in one partition so per-entity order stays total —
    /// but it is the wrong *compaction* key: a unit's state events and its
    /// metric events share `key()`, so latest-per-key compaction would let
    /// one kind supersede the other. Compacted projection topics therefore
    /// route by `key()` and compact by `identity()`: the latest state event
    /// *and* the latest metric event of an entity both survive, and the fold
    /// over a compacted log reconstructs the same rows as a full-history
    /// fold.
    pub fn identity(&self) -> u64 {
        let (id, kind) = match *self {
            ProjEvent::Pilot { pilot, .. } => (pilot.0, 0),
            ProjEvent::PilotCapacity { pilot, .. } => (pilot.0, 1),
            ProjEvent::Unit { unit, .. } => (unit.0, 2),
            ProjEvent::UnitMetric { unit, .. } => (unit.0, 3),
        };
        (id << 2) | kind
    }

    /// Event timestamp in the producer's timebase (seconds).
    pub fn t_s(&self) -> f64 {
        match *self {
            ProjEvent::Pilot { t_s, .. }
            | ProjEvent::PilotCapacity { t_s, .. }
            | ProjEvent::Unit { t_s, .. }
            | ProjEvent::UnitMetric { t_s, .. } => t_s,
        }
    }

    /// Compact binary encoding: one tag byte, then fixed-width LE fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34);
        self.encode_into(&mut out);
        out
    }

    /// Append this event's encoding to `out` (for batch buffers).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            ProjEvent::Pilot { pilot, state, t_s } => {
                out.push(TAG_PILOT);
                out.extend_from_slice(&pilot.0.to_le_bytes());
                out.push(pilot_state_code(state));
                out.extend_from_slice(&t_s.to_bits().to_le_bytes());
            }
            ProjEvent::PilotCapacity {
                pilot,
                free_cores,
                total_cores,
                t_s,
            } => {
                out.push(TAG_PILOT_CAPACITY);
                out.extend_from_slice(&pilot.0.to_le_bytes());
                out.extend_from_slice(&free_cores.to_le_bytes());
                out.extend_from_slice(&total_cores.to_le_bytes());
                out.extend_from_slice(&t_s.to_bits().to_le_bytes());
            }
            ProjEvent::Unit {
                unit,
                state,
                pilot,
                t_s,
            } => {
                out.push(TAG_UNIT);
                out.extend_from_slice(&unit.0.to_le_bytes());
                out.push(unit_state_code(state));
                match pilot {
                    Some(p) => {
                        out.push(1);
                        out.extend_from_slice(&p.0.to_le_bytes());
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&t_s.to_bits().to_le_bytes());
            }
            ProjEvent::UnitMetric {
                unit,
                wait_s,
                exec_s,
                t_s,
            } => {
                out.push(TAG_UNIT_METRIC);
                out.extend_from_slice(&unit.0.to_le_bytes());
                out.extend_from_slice(&wait_s.to_bits().to_le_bytes());
                out.extend_from_slice(&exec_s.to_bits().to_le_bytes());
                out.extend_from_slice(&t_s.to_bits().to_le_bytes());
            }
        }
    }

    /// Decode one event from `buf`. Rejects truncated payloads, unknown tags
    /// and out-of-range state codes; trailing bytes are ignored so the format
    /// can grow append-only fields later.
    pub fn decode(buf: &[u8]) -> Result<ProjEvent, EventCodecError> {
        let (&tag, rest) = buf.split_first().ok_or(EventCodecError::Truncated)?;
        let mut r = Reader(rest);
        match tag {
            TAG_PILOT => Ok(ProjEvent::Pilot {
                pilot: PilotId(r.u64()?),
                state: pilot_state_from_code(r.u8()?)?,
                t_s: r.f64()?,
            }),
            TAG_PILOT_CAPACITY => Ok(ProjEvent::PilotCapacity {
                pilot: PilotId(r.u64()?),
                free_cores: r.u32()?,
                total_cores: r.u32()?,
                t_s: r.f64()?,
            }),
            TAG_UNIT => {
                let unit = UnitId(r.u64()?);
                let state = unit_state_from_code(r.u8()?)?;
                let pilot = match r.u8()? {
                    0 => None,
                    _ => Some(PilotId(r.u64()?)),
                };
                Ok(ProjEvent::Unit {
                    unit,
                    state,
                    pilot,
                    t_s: r.f64()?,
                })
            }
            TAG_UNIT_METRIC => Ok(ProjEvent::UnitMetric {
                unit: UnitId(r.u64()?),
                wait_s: r.f64()?,
                exec_s: r.f64()?,
                t_s: r.f64()?,
            }),
            other => Err(EventCodecError::UnknownTag(other)),
        }
    }
}

/// Bounds-checked little-endian cursor over an event payload.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], EventCodecError> {
        if self.0.len() < n {
            return Err(EventCodecError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, EventCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, EventCodecError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, EventCodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, EventCodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Where producers hand off projection events.
///
/// Implementations must be cheap and non-blocking from the producer's point
/// of view (the thread backend calls this from the manager loop, once per
/// drained message batch) and must not panic: a sink that loses its transport
/// counts drops instead of failing the write path. The reference
/// implementation is `pilot_query::BrokerSink`, which appends the whole batch
/// with one keyed `produce_batch` call.
pub trait EventSink: Send + Sync {
    /// Hand a batch of events to the sink. Infallible by design — the write
    /// path must never stall or fail because the read plane is behind.
    fn emit_batch(&self, events: &[ProjEvent]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: ProjEvent) {
        let bytes = e.encode();
        let back = ProjEvent::decode(&bytes).expect("decode");
        assert_eq!(e, back);
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        roundtrip(ProjEvent::Pilot {
            pilot: PilotId(42),
            state: PilotState::Active,
            t_s: 1.25,
        });
        roundtrip(ProjEvent::PilotCapacity {
            pilot: PilotId(7),
            free_cores: 3,
            total_cores: 8,
            t_s: 0.0,
        });
        roundtrip(ProjEvent::Unit {
            unit: UnitId(u64::MAX),
            state: UnitState::Running,
            pilot: Some(PilotId(1)),
            t_s: 9.5,
        });
        roundtrip(ProjEvent::Unit {
            unit: UnitId(0),
            state: UnitState::Pending,
            pilot: None,
            t_s: -1.0,
        });
        roundtrip(ProjEvent::UnitMetric {
            unit: UnitId(3),
            wait_s: 0.125,
            exec_s: 2.5,
            t_s: 3.75,
        });
    }

    #[test]
    fn all_states_roundtrip_through_codes() {
        for c in 0..PILOT_STATE_COUNT as u8 {
            let s = pilot_state_from_code(c).expect("pilot code");
            assert_eq!(pilot_state_code(s), c);
        }
        for c in 0..UNIT_STATE_COUNT as u8 {
            let s = unit_state_from_code(c).expect("unit code");
            assert_eq!(unit_state_code(s), c);
        }
        assert!(pilot_state_from_code(PILOT_STATE_COUNT as u8).is_err());
        assert!(unit_state_from_code(UNIT_STATE_COUNT as u8).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ProjEvent::decode(&[]), Err(EventCodecError::Truncated));
        assert_eq!(
            ProjEvent::decode(&[99, 0, 0]),
            Err(EventCodecError::UnknownTag(99))
        );
        let mut short = ProjEvent::Pilot {
            pilot: PilotId(1),
            state: PilotState::Done,
            t_s: 1.0,
        }
        .encode();
        short.truncate(short.len() - 1);
        assert_eq!(ProjEvent::decode(&short), Err(EventCodecError::Truncated));
    }

    #[test]
    fn key_is_entity_id() {
        assert_eq!(
            ProjEvent::Pilot {
                pilot: PilotId(5),
                state: PilotState::New,
                t_s: 0.0
            }
            .key(),
            5
        );
        assert_eq!(
            ProjEvent::UnitMetric {
                unit: UnitId(9),
                wait_s: 0.0,
                exec_s: 0.0,
                t_s: 0.0
            }
            .key(),
            9
        );
    }

    #[test]
    fn identity_separates_kinds_but_shares_routing_key() {
        let state = ProjEvent::Unit {
            unit: UnitId(9),
            state: UnitState::Running,
            pilot: None,
            t_s: 0.0,
        };
        let metric = ProjEvent::UnitMetric {
            unit: UnitId(9),
            wait_s: 1.0,
            exec_s: 2.0,
            t_s: 3.0,
        };
        let pstate = ProjEvent::Pilot {
            pilot: PilotId(9),
            state: PilotState::Active,
            t_s: 0.0,
        };
        let pcap = ProjEvent::PilotCapacity {
            pilot: PilotId(9),
            free_cores: 4,
            total_cores: 8,
            t_s: 0.0,
        };
        // Same routing key (entity 9) so all four share a partition…
        assert!([&state, &metric, &pstate, &pcap]
            .iter()
            .all(|e| e.key() == 9));
        // …but four distinct compaction identities, so compaction keeps the
        // latest event of *each kind*.
        let ids = [
            state.identity(),
            metric.identity(),
            pstate.identity(),
            pcap.identity(),
        ];
        for i in 0..ids.len() {
            for j in 0..i {
                assert_ne!(ids[i], ids[j]);
            }
        }
        // Later events of the same (entity, kind) share an identity.
        let metric2 = ProjEvent::UnitMetric {
            unit: UnitId(9),
            wait_s: 9.0,
            exec_s: 9.0,
            t_s: 9.0,
        };
        assert_eq!(metric.identity(), metric2.identity());
    }

    #[test]
    fn trailing_bytes_are_tolerated() {
        let e = ProjEvent::Unit {
            unit: UnitId(11),
            state: UnitState::Done,
            pilot: Some(PilotId(2)),
            t_s: 4.0,
        };
        let mut bytes = e.encode();
        bytes.extend_from_slice(&[0xAA; 5]);
        assert_eq!(ProjEvent::decode(&bytes), Ok(e));
    }
}
