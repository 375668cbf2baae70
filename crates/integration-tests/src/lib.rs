//! Test-only workspace member.
//!
//! This crate exists to own the cross-crate integration suites under
//! `tests/`: the four end-to-end pipelines adopted from the repository
//! root (which the virtual workspace manifest used to reach through
//! `[[test]]` path entries in `didt-bench`), the golden-number
//! regression suite for the figure/table experiments, and the
//! experiment-runner determinism tests. It has no library code.

#![forbid(unsafe_code)]
