//! # pilot-query — the read plane
//!
//! High-QPS status queries served off the event stream instead of the
//! owner's locks. Producers (the thread backend's manager loop, the fabric
//! controller's driver) export every pilot/unit state transition, capacity
//! change, and completion metric as a compact [`ProjEvent`] on a broker
//! *projection topic*; a [`Materializer`] folds the topic into
//! query-optimized [`QueryTables`] and publishes immutable snapshots through
//! a [`SnapshotCell`]; a [`QueryService`] answers every read — point lookups,
//! per-pilot utilization, whole-experiment dashboards — from the latest
//! snapshot with one atomic load and zero allocation.
//!
//! This is the paper's separation of *management* from *observation*: the
//! write path (late binding, scheduling, state machines) pays one batched
//! append per drained batch, and arbitrarily many dashboards read without
//! ever touching the service's mutex. EXP QP-1 in `pilot-bench` measures the
//! gap: projection reads sustain orders of magnitude more QPS than
//! lock-path reads while a full ST-1 write storm runs, with bounded
//! staleness (p50/p99 reported per run).
//!
//! The fold itself scales the same way the data plane does: a
//! [`ShardedMaterializer`] runs N fold workers over disjoint partition
//! groups, each publishing per-shard snapshots that a [`ShardedQueryService`]
//! merges into the global dashboard — bit-identical to a single fold,
//! because every aggregate is order-independent (see [`QueryTables::merge`]).
//! Projection topics can compact ([`BrokerSink::create_compacted`]) so
//! bootstrap cost is bounded by live entities, not event history; and
//! readers who want pushes instead of polls take
//! [`QueryService::subscribe`], a coalesced per-entity delta feed off the
//! shard folds. EXP QP-2 measures all three: fold throughput vs shard
//! count, compacted vs full-history bootstrap, and delta-push latency vs
//! poll staleness.
//!
//! ```rust
//! use pilot_core::describe::{PilotDescription, UnitDescription};
//! use pilot_core::scheduler::FirstFitScheduler;
//! use pilot_core::thread::{kernel_fn, TaskOutput, ThreadPilotService};
//! use pilot_query::{BrokerSink, Materializer};
//! use pilot_sim::SimDuration;
//! use pilot_streaming::Broker;
//! use std::sync::Arc;
//!
//! // Write side: a service wired to a projection topic.
//! let broker = Arc::new(Broker::new());
//! let sink = BrokerSink::create(Arc::clone(&broker), "proj.events", 4).unwrap();
//! let svc = ThreadPilotService::with_sink(Box::new(FirstFitScheduler), sink);
//! let pilot = svc.submit_pilot(PilotDescription::new(2, SimDuration::MAX));
//! assert!(svc.wait_pilot_active(pilot));
//! let unit = svc.submit_unit(
//!     UnitDescription::new(1),
//!     kernel_fn(|_| Ok(TaskOutput::of(42))),
//! );
//! svc.wait_unit(unit);
//! svc.shutdown();
//!
//! // Read side: materialize the topic, query the projection.
//! let mut m = Materializer::bootstrap(Arc::clone(&broker), "proj.events").unwrap();
//! m.catch_up().unwrap();
//! let qs = m.service();
//! assert_eq!(qs.dashboard().exec_count, 1);
//! assert_eq!(qs.unit_state(unit), Some(pilot_core::state::UnitState::Done));
//! ```

pub mod delta;
pub mod materializer;
mod pmap;
pub mod service;
pub mod shard;
pub mod sink;
pub mod snap;
pub mod tables;

pub use delta::{DeltaBatch, DeltaHub, DeltaSubscription};
pub use materializer::{Materializer, StalenessWindow};
pub use service::QueryService;
pub use shard::{ShardPlan, ShardedMaterializer, ShardedQueryService};
pub use sink::{
    publish_events, BrokerSink, DEFAULT_COMPACT_TRIGGER, DEFAULT_PARTITIONS, DEFAULT_RETENTION,
};
pub use snap::SnapshotCell;
pub use tables::{ContinuityToken, Dashboard, PilotRow, QueryTables, UnitRow};
