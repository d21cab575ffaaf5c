//! End-to-end and per-layer benchmark of the `sft` embedding service.
//!
//! [`bench::run`] starts the real serving front-end for a workload, drives
//! the workload's generated request stream through it in a closed loop,
//! checks every answer and reports the end-to-end metrics; with tracing
//! on it also replays the same stream in-process with spans around each
//! layer's public calls and reports the per-layer metrics. See the
//! README in this directory for the workloads and metrics.

pub mod bench;
pub mod check;
pub mod drive;
pub mod independent;
pub mod report;
pub mod run;
pub mod spec;
pub mod stream;
pub mod trace;
