//! Channel-based fabric transport: the message types exchanged between the
//! controller and its host daemons, plus the link bundle wiring them up.
//!
//! Every daemon holds one `Sender<ToController>` clone (all daemon traffic
//! funnels into a single controller inbox) and one private
//! `Receiver<ToDaemon>` inbox. Channels are FIFO and the fabric driver steps
//! daemons in index order, so message interleaving is a pure function of the
//! tick schedule — replays see byte-identical traffic. A later `pilot-infra`
//! network model can replace these process-local channels without touching
//! the controller or daemon logic.

// lint: deterministic — this module must stay replayable: no wall-clock reads

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::ids::{PilotId, UnitId};

use super::FabricUnit;

/// One shard's capacity as reported in a heartbeat: the controller's
/// aggregate view is the union of the latest report per shard, refreshed by
/// heartbeats and decremented optimistically between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardCapacity {
    /// Which shard.
    pub shard: u32,
    /// Assignment epoch the daemon believes it holds the shard under.
    pub epoch: u64,
    /// Free cores across the shard's pilots right now.
    pub free_cores: u32,
    /// Units queued (pending, not yet bound) on the shard.
    pub queued_units: u64,
}

/// Daemon → controller traffic. Every data-path message carries the
/// `(shard, epoch)` the daemon believes it owns; the controller fences any
/// report whose epoch is not the shard's current assignment epoch — the
/// exact `append_with_lease`/`FencedEpoch` discipline the replicated broker
/// applies to deposed partition leaders.
#[derive(Clone, Debug)]
pub(crate) enum ToController {
    /// Liveness + capacity report, sent every `heartbeat_every` ticks.
    Heartbeat {
        /// Reporting daemon.
        daemon: usize,
        /// Logical tick the report was produced at.
        tick: u64,
        /// Capacity of every shard the daemon currently runs.
        shards: Vec<ShardCapacity>,
    },
    /// A unit was bound to a pilot and began executing.
    UnitStarted {
        /// Reporting daemon.
        daemon: usize,
        /// Shard the bind happened on.
        shard: u32,
        /// Epoch the daemon holds the shard under.
        epoch: u64,
        /// The unit.
        unit: UnitId,
        /// The pilot it bound to.
        pilot: PilotId,
        /// Bind tick.
        tick: u64,
    },
    /// A unit's attempt finished successfully.
    UnitDone {
        /// Reporting daemon.
        daemon: usize,
        /// Shard the unit ran on.
        shard: u32,
        /// Epoch the daemon holds the shard under.
        epoch: u64,
        /// The unit.
        unit: UnitId,
        /// Completion tick.
        tick: u64,
    },
    /// A unit's attempt failed (injected kernel fault).
    UnitFailed {
        /// Reporting daemon.
        daemon: usize,
        /// Shard the unit ran on.
        shard: u32,
        /// Epoch the daemon holds the shard under.
        epoch: u64,
        /// The unit.
        unit: UnitId,
        /// Failure tick.
        tick: u64,
    },
}

/// Controller → daemon traffic.
#[derive(Clone, Debug)]
pub(crate) enum ToDaemon {
    /// Take ownership of a shard at the given epoch, hosting these pilots
    /// (`(pilot, cores)`). Sent at bootstrap and on every rebalance; the
    /// epoch strictly increases per shard, never reuses an older one.
    AssignShard {
        /// Which shard.
        shard: u32,
        /// Assignment epoch (fences the previous owner).
        epoch: u64,
        /// Pilots the shard hosts, sorted by id.
        pilots: Vec<(PilotId, u32)>,
    },
    /// Queue a unit on a shard the daemon owns. Carries the epoch the
    /// controller routed under; the daemon drops it if its own epoch moved.
    Dispatch {
        /// Target shard.
        shard: u32,
        /// Epoch the controller routed under.
        epoch: u64,
        /// The unit (description + duration + attempt number).
        unit: FabricUnit,
    },
}

/// The wired-up channel bundle for one fabric instance.
pub(crate) struct Links {
    /// Cloneable sender handed to every daemon.
    pub to_controller: Sender<ToController>,
    /// The controller's inbox.
    pub controller_inbox: Receiver<ToController>,
    /// Per-daemon senders kept by the controller.
    pub to_daemons: Vec<Sender<ToDaemon>>,
    /// Per-daemon inboxes.
    pub daemon_inboxes: Vec<Receiver<ToDaemon>>,
}

/// Build the channel fabric for `n_daemons` daemons.
pub(crate) fn links(n_daemons: usize) -> Links {
    let (to_controller, controller_inbox) = unbounded();
    let mut to_daemons = Vec::with_capacity(n_daemons);
    let mut daemon_inboxes = Vec::with_capacity(n_daemons);
    for _ in 0..n_daemons {
        let (tx, rx) = unbounded();
        to_daemons.push(tx);
        daemon_inboxes.push(rx);
    }
    Links {
        to_controller,
        controller_inbox,
        to_daemons,
        daemon_inboxes,
    }
}
