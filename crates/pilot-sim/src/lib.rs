//! # pilot-sim — deterministic discrete-event simulation engine
//!
//! Substrate for every simulated infrastructure in this workspace. The paper's
//! evaluation ran on production HPC/HTC/cloud resources; this crate provides the
//! deterministic virtual-time machinery on which those infrastructures are
//! modeled (see DESIGN.md, "Substitutions").
//!
//! The engine follows a *Mealy machine* discipline rather than a closure-based
//! one: a simulation model implements [`Machine`], receiving typed events and
//! emitting future events through an [`Outbox`]. This keeps models pure,
//! deterministic, and unit-testable without an event loop. The [`Executor`]
//! drives a machine through virtual time with a stable tie-break order
//! (time, then insertion sequence), so a given seed always yields the same
//! sequence of handled events — the reproducibility property the paper's
//! Mini-App framework demands.
//!
//! ## Example: a deterministic M/M/1-ish queue in 20 lines
//!
//! ```rust
//! use pilot_sim::{Dist, Executor, Machine, Outbox, SimDuration, SimRng, SimTime};
//!
//! struct Queue {
//!     rng: SimRng,
//!     busy: bool,
//!     waiting: u32,
//!     served: u32,
//! }
//! enum Ev { Arrive, Depart }
//!
//! impl Machine for Queue {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, ev: Ev, out: &mut Outbox<Ev>) {
//!         match ev {
//!             Ev::Arrive => {
//!                 if self.served + self.waiting as u32 + u32::from(self.busy) < 100 {
//!                     out.after(SimDuration::from_secs_f64(self.rng.exponential(1.0)), Ev::Arrive);
//!                 }
//!                 if self.busy { self.waiting += 1; }
//!                 else {
//!                     self.busy = true;
//!                     out.after(SimDuration::from_secs_f64(Dist::exponential(0.5).sample(&mut self.rng)), Ev::Depart);
//!                 }
//!             }
//!             Ev::Depart => {
//!                 self.served += 1;
//!                 if self.waiting > 0 {
//!                     self.waiting -= 1;
//!                     out.after(SimDuration::from_secs_f64(self.rng.exponential(0.5)), Ev::Depart);
//!                 } else { self.busy = false; }
//!             }
//!         }
//!     }
//! }
//!
//! let mut ex = Executor::new(Queue { rng: SimRng::new(7), busy: false, waiting: 0, served: 0 });
//! ex.schedule_at(SimTime::ZERO, Ev::Arrive);
//! ex.run();
//! assert!(ex.machine().served > 0);
//! // Same seed, same run: rebuild and the event count is identical.
//! let processed = ex.processed();
//! let mut ex2 = Executor::new(Queue { rng: SimRng::new(7), busy: false, waiting: 0, served: 0 });
//! ex2.schedule_at(SimTime::ZERO, Ev::Arrive);
//! ex2.run();
//! assert_eq!(ex2.processed(), processed);
//! ```
//!
//! Modules:
//! - [`time`]: nanosecond-resolution virtual time ([`SimTime`], [`SimDuration`]).
//! - [`engine`]: the [`Machine`] trait, [`Outbox`], and the [`Executor`] event loop.
//! - [`rng`]: a seedable, splittable xoshiro256++ RNG with independent streams.
//! - [`dist`]: sampling distributions for workload and infrastructure models.
//! - [`stats`]: streaming statistics, percentiles, histograms, time-weighted means.

// lint: deterministic — this module must stay replayable: no wall-clock reads

pub mod dist;
pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use engine::{Executor, Machine, Outbox};
pub use rng::SimRng;
pub use stats::{
    percentile, percentile_sorted, summarize, Histogram, Summary, TimeWeighted, Welford,
};
pub use time::{SimDuration, SimTime};
