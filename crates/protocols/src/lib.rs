//! Baseline coherence protocols.
//!
//! The paper compares TokenB against three baselines (Section 5.1), all MOSI
//! invalidation protocols with the migratory-sharing optimization:
//!
//! * [`SnoopingController`] — a traditional split-transaction snooping
//!   protocol in the style of the Sun Starfire. Every request is broadcast on
//!   the totally-ordered tree interconnect; the order established by the root
//!   switch resolves all races, and a single "owner bit" held in memory
//!   decides when memory must respond. It cannot run on the unordered torus.
//! * [`DirectoryController`] — a full-map blocking directory protocol in the
//!   style of the SGI Origin 2000 and Alpha 21364. Requests are sent to the
//!   block's home node, which forwards them to the current owner and issues
//!   invalidations; the directory state lives in DRAM (or in a "perfect"
//!   zero-latency directory cache for the sensitivity study).
//! * [`HammerController`] — a reverse-engineered approximation of AMD's
//!   Hammer protocol: requests go to the home node, which broadcasts a probe
//!   to every node; every node answers the requester directly (data from the
//!   owner, acknowledgements from everyone else), trading directory state and
//!   lookup latency for broadcast and acknowledgement traffic.
//!
//! Their cache side — line states, MSHR merging and completion, the
//! writeback buffer — is one crate-private MOSI core; each protocol module
//! adds only its home side, its message handlers and its rule for when a
//! miss is complete.
//!
//! All three implement the same [`tc_types::CoherenceController`] interface
//! as the TokenB controller in `tc-core`, so the system runner and the
//! benchmark harness can swap protocols freely.
//!
//! Construction goes through the [`registry`]: a table of
//! [`registry::ProtocolFactory`] functions keyed by [`tc_types::ProtocolKind`]
//! and by name, with all four paper protocols registered by default. The
//! system runner builds controllers from the registry, so a new protocol
//! variant is a registration, not an engine edit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod directory;
pub mod hammer;
mod mosi;
pub mod registry;
pub mod snooping;

pub use common::{MosiLine, MosiState, WritebackPlane};
pub use directory::DirectoryController;
pub use hammer::HammerController;
pub use registry::{default_registry, ProtocolEntry, ProtocolFactory, ProtocolRegistry};
pub use snooping::SnoopingController;
