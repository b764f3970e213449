//! Steady-state allocation discipline of the online estimation kernel.
//!
//! The facade binary installs [`disq::trace::CountingAlloc`] as the
//! global allocator, so `thread_alloc_bytes()` observes every heap
//! allocation on this thread. After one warm-up object has grown the
//! [`EstimateScratch`] buffers, estimating further objects must allocate
//! **nothing**: the per-object cost of the n = 10⁶ online sweep is pure
//! compute, not allocator traffic.

use disq::core::online::{estimate_objects_into, EstimateScratch};
use disq::core::{EvaluationPlan, PlannedAttribute, TargetRegression};
use disq::crowd::{CrowdConfig, SimulatedCrowd};
use disq::domain::{domains::pictures, AttributeKind, ObjectId, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn plan(spec: &disq::domain::DomainSpec) -> EvaluationPlan {
    let bmi = spec.id_of("Bmi").unwrap();
    let heavy = spec.id_of("Heavy").unwrap();
    EvaluationPlan {
        attributes: vec![
            PlannedAttribute {
                attr: bmi,
                label: "Bmi".into(),
                kind: AttributeKind::Numeric,
                questions: 8,
            },
            PlannedAttribute {
                attr: heavy,
                label: "Heavy".into(),
                kind: AttributeKind::Boolean,
                questions: 12,
            },
        ],
        regressions: vec![TargetRegression {
            target: bmi,
            label: "Bmi".into(),
            intercept: 1.0,
            coefficients: vec![0.9, 2.0],
            training_mse: 0.0,
        }],
    }
}

#[test]
fn warm_estimation_allocates_nothing() {
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(0);
    let pop = Population::sample(Arc::clone(&spec), 200, &mut rng).unwrap();
    // Spam filtering active: the filter's median scratch must be
    // allocation-free too.
    let cfg = CrowdConfig {
        spam_rate: 0.2,
        ..Default::default()
    };
    let mut crowd = SimulatedCrowd::new(pop, cfg, None, 9);
    let plan = plan(&spec);
    let mut scratch = EstimateScratch::new();
    let mut out = Vec::with_capacity(64 * plan.regressions.len());

    // Warm-up: grows the scratch buffers (and any allocator-side caches).
    let mut sweep = |o: usize, out: &mut Vec<f64>| {
        estimate_objects_into(&mut crowd, &plan, &[ObjectId(o)], &mut scratch, out, None)
    };
    sweep(0, &mut out).unwrap();
    out.clear();

    let bytes0 = disq::trace::thread_alloc_bytes();
    let allocs0 = disq::trace::thread_allocs();
    for i in 1..50 {
        sweep(i, &mut out).unwrap();
    }
    let bytes = disq::trace::thread_alloc_bytes() - bytes0;
    let allocs = disq::trace::thread_allocs() - allocs0;
    assert_eq!(
        (bytes, allocs),
        (0, 0),
        "warm per-object estimation allocated {bytes} bytes in {allocs} allocations"
    );
    assert_eq!(out.len(), 49 * plan.regressions.len());
}

#[test]
fn warm_flat_sweep_allocates_nothing() {
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(0);
    let pop = Population::sample(Arc::clone(&spec), 200, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), None, 10);
    let plan = plan(&spec);
    let objects: Vec<ObjectId> = (0..40).map(ObjectId).collect();
    let mut scratch = EstimateScratch::new();
    let mut out = Vec::new();
    estimate_objects_into(&mut crowd, &plan, &objects, &mut scratch, &mut out, None).unwrap();
    out.clear();
    out.reserve(objects.len() * plan.regressions.len());

    let bytes0 = disq::trace::thread_alloc_bytes();
    estimate_objects_into(&mut crowd, &plan, &objects, &mut scratch, &mut out, None).unwrap();
    let bytes = disq::trace::thread_alloc_bytes() - bytes0;
    assert_eq!(bytes, 0, "warm flat sweep allocated {bytes} bytes");
}
