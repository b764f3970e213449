//! The heap watermark is process-global: any test that frees memory
//! while it runs pulls the live-byte delta down, and any test that
//! starts or stops it resets it. This binary holds a single test, so it
//! runs in a process of its own.

// Links the crate that installs the counting global allocator.
extern crate disq_bench;

use disq_domain::{domains::pictures, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn watermark_sees_the_population() {
    disq_trace::watermark_start();
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(1);
    let pop = Population::sample(Arc::clone(&spec), 2_000, &mut rng).unwrap();
    let peak = disq_trace::watermark_stop();
    // The column store alone is n_objects × n_attributes × 8 bytes.
    let floor = (pop.n_objects() * spec.n_attrs() * 8) as u64;
    assert!(
        peak >= floor,
        "peak {peak} below column-store floor {floor}"
    );
}
