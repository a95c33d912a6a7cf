//! Step-level computation graphs for async/finish/future programs.
//!
//! The paper defines a *computation graph* (§3) whose nodes are **steps**
//! (Definition 1: maximal statement sequences free of async/finish/get
//! boundaries) and whose edges are **continue**, **spawn**, and **join**
//! edges, the latter split into *tree joins* (into an ancestor task) and
//! *non-tree joins* (into a non-ancestor).
//!
//! This crate builds that graph from the serial executor's instrumentation
//! stream ([`builder::GraphBuilder`] is a
//! [`futrace_runtime::Monitor`]), and provides:
//!
//! * [`graph::CompGraph`] — the step graph with task/step metadata and the
//!   recorded shared-memory accesses,
//! * [`oracle`] — exact reachability (transitive closure over the DAG) and
//!   the brute-force determinacy-race check of Definition 3, used as the
//!   ground truth the DTRG detector is validated against,
//! * `stats` — the graph analytics behind Table 2's structural columns
//!   (#Tasks, #NTJoins) plus span/work measures,
//! * [`dot`] — Graphviz export used to render Figure-2/Figure-3 style
//!   pictures of small programs.
//!
//! The full graph is *memory-expensive by design* (that is the paper's
//! motivation for the DTRG): it is intended for tests, examples, and
//! analytics on small and medium executions, not for paper-scale runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod builder;
pub mod dot;
pub(crate) mod graph;
pub mod mhp;
pub mod oracle;
pub(crate) mod stats;

pub use builder::GraphBuilder;
pub use graph::{Access, CompGraph, EdgeKind, JoinKind};
pub use stats::GraphStats;
