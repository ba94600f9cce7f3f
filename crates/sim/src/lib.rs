//! Shared simulator runtime under the CONGEST, CONGESTED CLIQUE and MPC
//! simulators.
//!
//! The paper's subject is what deterministic coloring costs *as a function
//! of bandwidth*, so the bandwidth machinery lives here once instead of
//! three times (`DESIGN.md` §2.2a):
//!
//! - [`wire`] — the [`Wire`] message-size accounting every payload
//!   implements;
//! - [`cap`] — [`BandwidthCap`]: the per-message bit cap with the paper's
//!   default formula and the fragmentation rule for swept (small) caps;
//! - [`metrics`] — [`SimMetrics`]: rounds / messages / bits /
//!   max-message-width counters;
//! - [`topology`] — [`NeighborTopology`], CONGEST's neighbor-only
//!   addressing with the sorted-adjacency/stamp-mark duplicate-send
//!   validation;
//! - [`engine`] — the [`RoundEngine`]: one sequential round loop owning
//!   validation, accounting and the sender-order inbox merge,
//!   [`RoundEngine::ship`] (the one delivery path every model's traffic
//!   takes over the selected transport), plus the
//!   worker pool for the drivers' local computation and the deterministic
//!   [`argmin_f64`] used by their central loops;
//! - [`deadline`] — [`Deadline`]/[`deadline::park_tick`]: the workspace's
//!   single audited wall-clock site, shared by every socket liveness
//!   timeout (the TCP transport and the `dcl_service` server/client);
//! - [`transport`] — the [`TransportSpec`] knob under the engine: the
//!   in-memory reference, or the [`TcpTransport`] shipping length-prefixed
//!   [`Wire`]-encoded frames over localhost sockets, proven bit-identical
//!   by the cross-transport determinism suites (`DESIGN.md` §7);
//! - [`exec`] — [`ExecConfig`]: the `{backend, cap, transport}` knob every
//!   driver config embeds.
//!
//! Each model crate (`dcl_congest`, `dcl_clique`, `dcl_mpc`) is a thin
//! policy on top: its addressing rule, the model's default cap, and its
//! charged cost events. CONGEST's stepped rounds run the engine's round
//! loop over a [`NeighborTopology`]; the clique's Lenzen routes and MPC's
//! machine rounds check their own budgets and ship through
//! [`RoundEngine::ship`]. Each model's `from_exec` constructor is the one
//! place an [`ExecConfig`]'s backend and transport reach the engine.
//!
//! # Examples
//!
//! ```
//! use dcl_graphs::generators;
//! use dcl_par::Backend;
//! use dcl_sim::{
//!     BandwidthCap, NeighborTopology, RoundEngine, SendPolicy, SimMetrics, TransportSpec,
//! };
//!
//! // A triangle, neighbor-only delivery, two-word cap.
//! let g = generators::complete(3);
//! let topo = NeighborTopology::new(&g);
//! let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
//! let mut metrics = SimMetrics::default();
//! let inboxes = engine.message_round(
//!     &topo,
//!     BandwidthCap::two_words(),
//!     SendPolicy::Strict,
//!     &mut metrics,
//!     |v| if v == 0 { vec![(2usize, 7u32)] } else { vec![] },
//! );
//! assert_eq!(inboxes[2], vec![(0, 7u32)]);
//! assert_eq!(metrics.rounds, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cap;
pub mod deadline;
pub mod engine;
pub mod exec;
pub mod metrics;
pub mod topology;
pub mod transport;
pub mod wire;

pub use cap::BandwidthCap;
pub use dcl_par::{Backend, Pool};
pub use deadline::Deadline;
pub use engine::{argmin_f64, Inboxes, RoundEngine, SendPolicy};
pub use exec::ExecConfig;
pub use metrics::SimMetrics;
pub use topology::NeighborTopology;
pub use transport::{
    Frame, FrameReader, RoundLimits, TcpTransport, TransportError, TransportSpec, TransportStats,
};
pub use wire::{bit_len, Wire};
