//! CONGEST model simulator.
//!
//! In the CONGEST model \[Pel00\], time is divided into synchronous rounds; in
//! each round every node may send one message of `O(log n)` bits to each of
//! its neighbors. This crate provides:
//!
//! - a [`network::Network`] that delivers messages between neighbors,
//!   meters rounds / messages / bits, and *enforces* the per-message
//!   bandwidth cap (the defining constraint of the model) — a thin CONGEST
//!   policy over the shared [`dcl_sim`] runtime (`DESIGN.md` §2.2a);
//! - message size accounting via the [`wire::Wire`] trait (re-exported from
//!   [`dcl_sim::wire`]);
//! - distributed BFS-tree construction ([`bfs`]);
//! - converge-cast (aggregation) and broadcast over trees ([`tree`]): a
//!   literal round-by-round implementation per tree, and the *charged*
//!   forest pair the hot paths run (identical per-tree results and costs;
//!   see `DESIGN.md` §2.4).
//!
//! A network built by [`network::Network::from_exec`] runs the drivers'
//! local computation on the [`Backend`] its config names (rounds always run
//! on the calling thread; see `DESIGN.md` §5): results are bit-identical,
//! only wall-clock changes.
//!
//! # Examples
//!
//! ```
//! use dcl_graphs::generators;
//! use dcl_congest::network::Network;
//!
//! let g = generators::ring(6);
//! let mut net = Network::with_default_cap(&g, 16);
//! // One round: every node tells its neighbors its own id.
//! let inboxes = net.broadcast_round(|v| Some(v as u32));
//! assert_eq!(net.metrics().rounds, 1);
//! assert_eq!(inboxes[0].len(), 2);
//! ```

#![forbid(unsafe_code)]
// Node ids double as indices into per-node state vectors throughout the
// simulators; indexed loops over `0..n` are the clearest expression of
// "for every node" here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bfs;
pub mod network;
pub mod tree;

pub use dcl_par::Backend;
pub use dcl_sim::wire;

pub use bfs::BfsTree;
pub use dcl_sim::{BandwidthCap, ExecConfig};
pub use network::{Metrics, Network};
pub use wire::Wire;
