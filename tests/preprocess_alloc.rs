//! Allocation budget of the offline phase.
//!
//! The facade binary installs [`disq::trace::CountingAlloc`] as the
//! global allocator, so `thread_allocs()` counts every heap allocation
//! this thread makes. Preprocessing keeps its bulk data flat: one answer
//! buffer per discovered attribute with each cell's mean computed once,
//! and per `FindRegression` call one aggregation buffer set and one flat
//! row buffer per target. A fig. 1 cell therefore makes a bounded number
//! of allocation calls, not one per (attribute, example) cell or per
//! training-row answer batch.
//!
//! Each bound is half the count of the layout that kept one `Vec` per
//! answer cell and per training row (9,214 and 8,631 calls for the two
//! cells below); the flat layout makes 1,302 and 785. The count is
//! deterministic: the same cell repeats it exactly.

use disq::core::{preprocess, DisqConfig};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::pictures;
use disq::domain::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Allocation calls of one `preprocess` of the pictures cell with query
/// attributes `targets` at `B_prc = $30` and `B_obj = 4¢`, on a
/// 2,000-object world.
fn preprocess_allocations(targets: &[&str], seed: u64) -> u64 {
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), 2_000, &mut rng).unwrap();
    let ids: Vec<_> = targets.iter().map(|n| spec.id_of(n).unwrap()).collect();
    let cap = Some(Money::from_dollars(30.0));
    let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), cap, seed);
    let before = disq::trace::thread_allocs();
    let out = preprocess(
        &mut crowd,
        &spec,
        &ids,
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        seed,
    )
    .unwrap();
    let calls = disq::trace::thread_allocs() - before;
    drop(out);
    calls
}

#[test]
fn fig1_cells_preprocess_within_their_allocation_budget() {
    for (targets, bound) in [(&["Bmi"][..], 4_607), (&["Bmi", "Age"][..], 4_315)] {
        let calls = preprocess_allocations(targets, 1);
        assert_eq!(
            calls,
            preprocess_allocations(targets, 1),
            "{targets:?}: the allocation count must repeat"
        );
        assert!(
            calls <= bound,
            "{targets:?}: preprocess made {calls} allocation calls (budget {bound})"
        );
    }
}
