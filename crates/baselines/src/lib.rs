//! Baseline execution models for the flea-flicker simulator.
//!
//! Three comparison points from the paper's evaluation:
//!
//! * [`InOrder`] — the baseline EPIC in-order pipeline ("base" in
//!   Figure 6): scoreboarded stall-on-use, one compiler issue group per
//!   cycle, split issue within a group. It is a short loop over
//!   [`ff_engine::InOrderStage`], the in-order stage it shares with
//!   runahead and multipass.
//! * [`Runahead`] — the Dundas–Mudge runahead scheme (§2, §5.4): the same
//!   in-order loop plus an episode policy. On a load-use stall the pipeline
//!   pre-executes ahead purely for prefetching; no results are preserved
//!   and there is no advance restart.
//! * [`OutOfOrder`] — the idealized dynamic-scheduling model of §5.1
//!   (128-entry window, 256-entry ROB, ideal predicate renaming, 3 extra
//!   pipe stages), plus the *realistic* decentralized variant of §5.2
//!   (three 16-entry scheduling queues) via
//!   [`OutOfOrder::realistic`].
//!
//! All models implement [`ff_engine::ExecutionModel`] and are validated
//! against the golden interpreter: their final architectural state must be
//! semantically identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inorder;
pub mod ooo;
pub mod runahead;

pub use inorder::InOrder;
pub use ooo::OutOfOrder;
pub use runahead::Runahead;
