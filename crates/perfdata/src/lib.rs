//! Performance-dataset substrate: an analytical stand-in for the paper's
//! empirical syr2k measurements.
//!
//! The paper reuses an exhaustively measured dataset (Randall et al.,
//! ICS'23): all 10,648 syr2k loop-nest configurations timed at two array
//! sizes (SM and XL) on a dual AMD EPYC 7742 machine. That data is not
//! shipped here, so this crate rebuilds the mapping `configuration →
//! runtime` from first principles with a roofline-style analytical cost
//! model ([`costmodel`]) over a parameterized machine description
//! ([`machine`]), plus deterministic, hash-keyed measurement jitter so the
//! data behaves like empirical observations while remaining exactly
//! reproducible.
//!
//! The model is calibrated so that
//!
//! * every SM runtime is below one second (the paper leans on this:
//!   "all SM objective values are less than one, and the LLM appropriately
//!   reflects this");
//! * XL runtimes land in single-digit seconds ("the whole-number magnitude
//!   in our datasets is almost exclusively less than ten seconds");
//! * the best configuration differs between sizes (tiling/packing tradeoffs
//!   shift with the working-set-to-cache ratio), making the two sizes
//!   "highly similar yet novel prediction task\[s\]";
//! * a boosted-tree model can fit the data to the paper's Table I quality
//!   band, but not perfectly (multiplicative noise bounds attainable R2).
//!
//! [`dataset`] materializes the full lattice and provides
//! splits; [`splits`] builds the ICL replica structure of par. III-B.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod dataset;
pub mod machine;
pub mod splits;

pub use costmodel::CostModel;
pub use dataset::{DatasetBundle, PerfDataset, Sample};
pub use machine::MachineModel;
pub use splits::{curated_icl_replicas, icl_replicas, IclSet};
