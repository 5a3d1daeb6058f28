//! # pilot-core — the pilot-abstraction (P\* model)
//!
//! The paper's primary contribution: a unified abstraction for
//! application-level resource management across heterogeneous infrastructure.
//! Following the P\* conceptual model (\[6\] in the paper), the abstraction has
//! four concepts:
//!
//! - **Pilot** — a placeholder job that acquires resources (cores) on some
//!   infrastructure and holds them for the application ([`PilotDescription`]).
//! - **Compute Unit (CU)** — a self-contained task ([`UnitDescription`] plus a
//!   workload: a real [`thread::WorkKernel`] or a synthetic duration model).
//! - **Pilot Manager** — submits/monitors pilots through the access layer
//!   (`pilot-saga` adaptors in simulation; local agents in real execution).
//! - **Unit Manager / Scheduler** — *late-binds* CUs onto pilots with free
//!   capacity ([`Scheduler`] implementations in [`scheduler`]).
//!
//! Late binding is the key mechanism: units are bound to concrete resources
//! only when capacity is actually available, so queue waits are paid once per
//! pilot instead of once per task, and placement decisions can use current
//! information (load, data locality).
//!
//! ## Two execution backends
//!
//! - [`thread`] — **real execution**: each active pilot runs an agent with a
//!   worker pool; kernels execute on real threads; timings are wall-clock.
//!   Used by the example applications and all criterion benchmarks.
//! - [`sim`] — **virtual-time execution** on the deterministic DES engine:
//!   pilots are placeholder jobs on simulated HPC/HTC/cloud/YARN backends,
//!   units carry duration models. Used for scaling, interoperability and
//!   adaptivity experiments beyond what one machine can host.
//!
//! Both backends share the same state machines, descriptions, scheduler
//! implementations and metric definitions, so results are comparable.

pub mod binding;
pub mod clock;
pub mod describe;
pub mod events;
pub mod fabric;
pub mod ids;
mod ledger;
pub mod metrics;
pub mod par;
pub mod retry;
pub mod scheduler;
pub mod sim;
pub mod state;
pub mod thread;

pub use binding::{BindStats, PendingQueue};
pub use clock::WallClock;
pub use describe::{DataLocation, PilotDescription, UnitDescription};
pub use events::{EventCodecError, EventSink, ProjEvent};
pub use fabric::{
    DaemonKillSchedule, Fabric, FabricConfig, FabricReport, KillMode, RebalanceEvent,
    ScheduledKill, ShardAssignment,
};
pub use ids::{PilotId, UnitId};
pub use metrics::{OverheadBreakdown, PilotTimes, UnitTimes};
pub use par::Parallelism;
pub use retry::{Backoff, FailureTracker, FaultPlan, ReliabilityStats, RetryPolicy};
pub use scheduler::{
    BackfillScheduler, DataAwareScheduler, FirstFitScheduler, LoadBalanceScheduler, PilotSnapshot,
    RandomScheduler, RoundRobinScheduler, Scheduler, UnitRequest,
};
pub use state::{IllegalTransition, PilotState, UnitState};
