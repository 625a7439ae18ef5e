//! Reachability searches: the heart of the paper.
//!
//! * [`single::single_reach`] — one-source search with sparse (hash-bag +
//!   VGC local search) and dense (bottom-up) rounds;
//! * [`multi::multi_reach`] — multi-source search producing `(v, s)`
//!   reachability pairs in a phase-concurrent table, with VGC local search
//!   over pairs.

pub mod multi;
pub mod single;

pub use multi::{multi_reach, MultiReachOutcome};
pub use single::{single_reach, SingleReachOutcome};
