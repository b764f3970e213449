//! Wall-clock instrumentation for the parallel experiment harness.
//!
//! Every experiment that sweeps cells through
//! [`crate::runner::run_cells_parallel`] goes through [`run_experiment`],
//! which times the sweep and renders a human-readable `harness:` line
//! (plus the `trace:` block of a traced run) for the report footer.
//! Performance is judged by the seeded, per-layer `disq-benchmark`
//! package (see `disq-benchmark/README.md`); this footer only says what
//! one run did.

use crate::runner::{run_cells_parallel_with, Cell};
use std::fmt::Write as _;
use std::time::Instant;

/// Timing and throughput facts of one harness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessTimings {
    /// Worker threads the pool used.
    pub threads: usize,
    /// Number of experimental cells in the sweep.
    pub cells: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// `(cell, rep)` units executed (`cells × reps`).
    pub units: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// World-cache lookups served from an existing slot.
    pub cache_hits: usize,
    /// World-cache lookups that sampled a fresh population.
    pub cache_misses: usize,
    /// Trace counters and kernel-timer histograms accumulated during the
    /// sweep (the delta of the process-global [`disq_trace`] registry).
    pub summary: disq_trace::RunSummary,
}

/// `count / secs`, or 0 for a zero-length interval.
pub fn per_sec(count: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

impl HarnessTimings {
    /// Fraction of world lookups served from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The human-readable footer appended to report output: the
    /// `harness:` line, plus the `trace:` block when the sweep recorded
    /// any trace activity.
    pub fn render(&self) -> String {
        let mut line = format!(
            "harness: {} cells x {} reps = {} units in {:.2}s \
             ({:.2} cells/s, {:.2} units/s) on {} thread{}; \
             world cache {:.0}% hits ({}/{})",
            self.cells,
            self.reps,
            self.units,
            self.wall_secs,
            per_sec(self.cells, self.wall_secs),
            per_sec(self.units, self.wall_secs),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            100.0 * self.cache_hit_rate(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        );
        if !self.summary.is_empty() {
            line.push('\n');
            line.push_str(self.summary.render().trim_end());
        }
        if let Ok(path) = std::env::var(disq_trace::TRACE_ENV_VAR) {
            if !path.is_empty() {
                let _ = write!(
                    line,
                    "\ntrace: events in {path}; analyze with `disq-insight report {path}`"
                );
            }
        }
        line
    }
}

/// Runs an experiment's cells through the parallel harness: executes
/// every `(cell, rep)` unit on the configured worker count and returns
/// per-cell aggregates plus the timings (whose
/// [`HarnessTimings::render`] line the caller appends to its report).
pub fn run_experiment(cells: &[Cell], reps: usize) -> (Vec<Option<(f64, f64)>>, HarnessTimings) {
    let threads = crate::pool::configured_threads();
    disq_trace::init_from_env();
    let trace_before = disq_trace::summary();
    let start = Instant::now();
    let outcome = run_cells_parallel_with(cells, reps, threads);
    let timings = HarnessTimings {
        threads: outcome.threads,
        cells: cells.len(),
        reps,
        units: outcome.units,
        wall_secs: start.elapsed().as_secs_f64(),
        cache_hits: outcome.cache_hits,
        cache_misses: outcome.cache_misses,
        summary: disq_trace::summary().delta_since(&trace_before),
    };
    (outcome.results, timings)
}

/// Times an arbitrary pool fan-out for experiments whose units are not
/// [`Cell`]s (coverage, Tables 4/5), like [`run_experiment`]. `f(i)`
/// receives the flat unit index `0..cells * reps`; when the experiment
/// shares worlds, pass its [`crate::world::WorldCache`] so the footer
/// carries the cache stats.
pub fn run_units<T, F>(
    cells: usize,
    reps: usize,
    cache: Option<&crate::world::WorldCache>,
    f: F,
) -> (Vec<T>, HarnessTimings)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = crate::pool::configured_threads();
    let units = cells * reps;
    disq_trace::init_from_env();
    let trace_before = disq_trace::summary();
    let start = Instant::now();
    let out = crate::pool::run_indexed(units, threads, f);
    let timings = HarnessTimings {
        threads,
        cells,
        reps,
        units,
        wall_secs: start.elapsed().as_secs_f64(),
        cache_hits: cache.map_or(0, |c| c.hits()),
        cache_misses: cache.map_or(0, |c| c.misses()),
        summary: disq_trace::summary().delta_since(&trace_before),
    };
    (out, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(threads: usize) -> HarnessTimings {
        HarnessTimings {
            threads,
            cells: 6,
            reps: 4,
            units: 24,
            wall_secs: 2.0,
            cache_hits: 20,
            cache_misses: 4,
            summary: disq_trace::RunSummary::default(),
        }
    }

    #[test]
    fn rates_and_footer() {
        let t = sample(4);
        assert!((t.cache_hit_rate() - 20.0 / 24.0).abs() < 1e-12);
        let line = t.render();
        assert!(line.contains("6 cells x 4 reps"), "{line}");
        assert!(line.contains("(3.00 cells/s, 12.00 units/s)"), "{line}");
        assert!(line.contains("4 threads"), "{line}");
        assert!(sample(1).render().contains("on 1 thread;"));
    }

    #[test]
    fn zero_wall_time_is_finite() {
        assert_eq!(per_sec(6, 0.0), 0.0);
        assert_eq!(per_sec(6, 2.0), 3.0);
    }

    #[test]
    fn footer_carries_the_trace_block_only_when_nonempty() {
        assert!(!sample(1).render().contains("\ntrace: "));
        let before = disq_trace::summary();
        disq_trace::count(disq_trace::Counter::DismantleChoices);
        let mut t = sample(1);
        t.summary = disq_trace::summary().delta_since(&before);
        let line = t.render();
        assert!(line.contains("\ntrace: dismantle choices"), "{line}");
    }
}
