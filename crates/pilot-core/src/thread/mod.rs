//! Real-execution backend: pilots become in-process agents with worker-thread
//! pools; compute units carry [`WorkKernel`]s that do real computation.
//!
//! The manager runs as its own event-loop thread that drives the same unit
//! and pilot ledger (`crate::ledger`) as the simulated backend, on the wall
//! clock: submissions, capacity changes and completions arrive as messages
//! on one inbox, and its timers (startup delay, walltime, crash clock,
//! deadlines, backoff) sit in one due-ordered queue the loop fires itself,
//! as the DES driver does; every batch of capacity changes re-runs the
//! late-binding pass over pending units. Binding, retries, recovery and
//! blacklist accounting, and the read-plane events are the ledger's, so
//! both backends record the same transitions in the same order, and
//! wall-clock timestamps land in the same [`crate::metrics::UnitTimes`]
//! records as virtual-time ones.
//!
//! Failure semantics: a panicking kernel marks its unit `Failed` (the worker
//! survives via `catch_unwind`); pilot cancel and walltime expiry *drain* —
//! the agent stops accepting new work and already-assigned units run to
//! completion, the semantics production pilot systems implement for clean
//! teardown.

mod agent;
mod kernel;
mod service;

pub use kernel::{kernel_fn, SyntheticKernel, TaskCtx, TaskError, TaskOutput, WorkKernel};
pub use service::{ServiceReport, StatusSnapshot, ThreadPilotService, UnitOutcome};
