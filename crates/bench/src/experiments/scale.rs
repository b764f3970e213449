//! The million-object scale curve: wall clock and peak heap of the full
//! online path — SoA chunked population sampling plus the batched,
//! allocation-free estimation kernel — at n = 10⁴, 10⁵, 10⁶ objects.
//!
//! Each size runs the same fixed plan (the fig. 1 single-target shape:
//! value questions, spam filtering, regression assembly) over *every*
//! object of a freshly sampled population, with the
//! [`disq_trace`] allocation watermark enabled around the measured
//! region. Each printed row carries wall time, objects per second and
//! the peak heap, so a curve that stops scaling linearly in n shows as
//! drifting ratios between adjacent rows. The gated measurement of the
//! same kernel at 10⁶ objects is `disq-benchmark`'s `scan_1m` workload
//! (see `disq-benchmark/README.md`).
//!
//! Sweep sizes come from `DISQ_SCALE_NS` (comma-separated object
//! counts); CI uses that to smoke-test the n = 10⁵ point only.

use crate::harness::per_sec;
use crate::report::Table;
use disq_core::online::{estimate_objects_into, EstimateScratch};
use disq_core::{EvaluationPlan, PlannedAttribute, TargetRegression};
use disq_crowd::{CrowdConfig, SimulatedCrowd};
use disq_domain::{domains::pictures, AttributeKind, ObjectId, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The default sweep: four decades would take minutes at 10⁷, so the
/// curve stops at the paper-motivated "million objects" point.
pub const DEFAULT_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Parses a `DISQ_SCALE_NS`-style size list (`"10000,100000"`). Invalid
/// or empty entries are dropped; an empty result means "use the default".
pub fn parse_sizes(raw: &str) -> Vec<usize> {
    raw.split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .collect()
}

/// Sweep sizes: `DISQ_SCALE_NS` when set and non-empty, else
/// [`DEFAULT_SIZES`].
pub fn sizes_from_env() -> Vec<usize> {
    let parsed = std::env::var("DISQ_SCALE_NS")
        .map(|s| parse_sizes(&s))
        .unwrap_or_default();
    if parsed.is_empty() {
        DEFAULT_SIZES.to_vec()
    } else {
        parsed
    }
}

/// The fixed per-object workload: one numeric and one boolean attribute
/// (both crowd question kinds), six value questions per object, one
/// regression target — small enough that the sweep is dominated by the
/// per-object kernel, which is what must scale.
fn scale_plan(spec: &disq_domain::DomainSpec) -> EvaluationPlan {
    let bmi = spec.id_of("Bmi").unwrap();
    let heavy = spec.id_of("Heavy").unwrap();
    EvaluationPlan {
        attributes: vec![
            PlannedAttribute {
                attr: bmi,
                label: "Bmi".into(),
                kind: AttributeKind::Numeric,
                questions: 2,
            },
            PlannedAttribute {
                attr: heavy,
                label: "Heavy".into(),
                kind: AttributeKind::Boolean,
                questions: 4,
            },
        ],
        regressions: vec![TargetRegression {
            target: bmi,
            label: "Bmi".into(),
            intercept: 0.8,
            coefficients: vec![0.95, 1.5],
            training_mse: 0.0,
        }],
    }
}

/// Runs the sweep at the `DISQ_SCALE_NS` (or default) sizes.
pub fn run() -> String {
    run_sizes(&sizes_from_env())
}

/// Runs the scale sweep at the given object counts, one table row per
/// size.
pub fn run_sizes(sizes: &[usize]) -> String {
    let spec = Arc::new(pictures::spec());
    let plan = scale_plan(&spec);
    let mut table = Table::new(
        "Scale curve: chunked SoA sampling + batched online estimation",
        &["objects", "wall s", "objects/s", "peak heap MB"],
    );
    for &n in sizes {
        disq_trace::watermark_start();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x5CA1E);
        let pop = Population::sample(Arc::clone(&spec), n, &mut rng).unwrap();
        let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), None, n as u64 + 1);
        let objects: Vec<ObjectId> = (0..n).map(ObjectId).collect();
        let mut scratch = EstimateScratch::new();
        let mut estimates = Vec::with_capacity(n * plan.regressions.len());
        estimate_objects_into(
            &mut crowd,
            &plan,
            &objects,
            &mut scratch,
            &mut estimates,
            None,
        )
        .expect("uncapped crowd cannot exhaust its budget");
        std::hint::black_box(&estimates);
        let wall = start.elapsed().as_secs_f64();
        let peak = disq_trace::watermark_stop();
        table.row(vec![
            n.to_string(),
            format!("{wall:.2}"),
            format!("{:.0}", per_sec(n, wall)),
            format!("{:.1}", peak as f64 / (1024.0 * 1024.0)),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes_filters_garbage() {
        assert_eq!(parse_sizes("10000,100000"), vec![10_000, 100_000]);
        assert_eq!(parse_sizes(" 500 , x, 0, 7 "), vec![500, 7]);
        assert!(parse_sizes("").is_empty());
    }

    #[test]
    fn small_sweep_produces_rows_and_linearish_scaling() {
        // Tiny sizes keep the test fast.
        let out = run_sizes(&[400, 800]);
        assert!(out.contains("400"), "{out}");
        assert!(out.contains("800"), "{out}");
        assert!(out.contains("peak heap MB"), "{out}");
    }
}
