//! Instruction-fetch front end for the flea-flicker simulator.
//!
//! Every pipeline model in the workspace shares this front end, matching the
//! paper's methodology (the models differ only behind the instruction
//! buffer). It provides:
//!
//! * [`Gshare`] — the 1024-entry gshare branch predictor of Table 2, with
//!   speculative global-history update and mispredict repair;
//! * [`FetchUnit`] — a fetch engine that walks the predicted path up to six
//!   instructions per cycle through the L1I (via `ff_mem`), filling a FIFO
//!   instruction buffer that backends consume by sequence number. The
//!   multipass instruction queue (256 entries) and the baseline buffer
//!   (24 entries) are both instances of this unit with different capacities.
//!
//! Backends resolve branches by comparing the actual next pc against the
//! fetched [`FetchedInst::predicted_next`]; on a mispredict they call
//! [`FetchUnit::flush_after`] which squashes younger instructions, repairs
//! the global history, and charges the front-end refill penalty.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fetch;
pub mod gshare;

pub use fetch::{fetch_group, redirect_resume, FetchUnit, FetchedInst};
pub use gshare::Gshare;
