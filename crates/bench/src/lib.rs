//! Shared reporting helpers for the reproduction binaries.
//!
//! One binary per paper artifact lives in `src/bin/` (see DESIGN.md's
//! per-experiment index); criterion micro-benches live in `benches/`. This
//! library holds the bits they share: aligned text tables, CSV emission,
//! the shared CLI-flag dialect, the standard experiment-record cache, and
//! the open-loop load pump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod table;

pub use table::TextTable;

pub mod openloop;
pub mod runs;

/// The frame-protocol client, re-exported under its long-standing path.
pub mod wireload {
    pub use lmpeel_serve::WireSwarm;
}
