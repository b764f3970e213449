//! `disq-insight`: post-hoc analytics over DisQ's observability surface.
//!
//! The `disq-trace` crate records what the pipeline *did* — JSONL event
//! streams with their spans, audit ledgers and worker provenance. This
//! crate turns those traces into answers:
//!
//! * [`report`] — streams a JSONL trace (crash-tolerant) into one
//!   aggregated [`report::RunReport`]: budget attribution by phase and
//!   question kind, dismantle-decision tables with every candidate's
//!   Eq. 8/9 score, and SPRT verdict/sample summaries.
//! * [`calib`] — scores the Eq. 2 error model over the `query_audit`
//!   ledgers [`explain`] folds: predicted `Err(b)` against realized
//!   per-object MSE, reporting correlation, bias and the
//!   worst-calibrated attributes.
//! * [`explain`] — `EXPLAIN ANALYZE` for crowd queries: renders the
//!   audit ledger of a traced run (query/object audits, drift-detector
//!   status, spam decisions) into a per-query error-attribution
//!   narrative, worst component first, and re-verifies the
//!   `noise + model + cross == realized` decomposition identity.
//! * [`workers`] — per-worker scorecards from the provenance ledger:
//!   answers, spend, observed spam rate, James–Stein-shrunk quality
//!   estimates and the worst-offender ranking, scored against the
//!   planted profiles when the heterogeneous worker model ran.
//! * [`slow`] — attributes one `disq-serve` slow-request dump's wall
//!   time to serving phases along its critical path.
//! * [`timeline`] — exports the span/event stream as Chrome trace-event
//!   JSON for `chrome://tracing` / Perfetto.
//! * [`flame`] — folds spans into a self/total-time and bytes-allocated
//!   hierarchy: ASCII tree or classic folded stacks. It also holds the
//!   one streaming [`flame::SpanJoin`] through which `report`, `flame` (and so
//!   `slow`) and `timeline` pair `span_start` with `span_end`.
//!
//! The `disq-insight` binary wraps all of these as subcommands
//! (`report` and `explain` also speak `--json`). Everything is
//! std-only, matching the rest of the workspace. Performance is not
//! judged here: the seeded, per-layer `disq-benchmark` package is the
//! perf ground truth (see `disq-benchmark/README.md`).

#![warn(missing_docs)]

pub mod calib;
pub mod explain;
pub mod flame;
pub mod report;
pub mod slow;
pub mod table;
pub mod timeline;
pub mod workers;

pub use calib::CalibReport;
pub use explain::{ExplainReport, QueryExplain};
pub use flame::{FlameGraph, FlameNode};
pub use report::RunReport;
pub use slow::SlowReport;
pub use timeline::Timeline;
pub use workers::{WorkerCard, WorkersReport};
