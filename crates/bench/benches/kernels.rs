//! Micro-benchmarks of the computational kernels: the greedy
//! budget-distribution solver (Eq. 2), SVD least squares, the symmetric
//! eigendecomposition behind the PSD projection, and a full
//! preprocessing run (the paper's "running time is polynomial in the two
//! budgets" remark, measured).
//!
//! Timing is hand-rolled (median of repeated batches) because the
//! environment cannot fetch `criterion`; output is one aligned line per
//! kernel with median and total iteration count, plus one speedup line
//! per dense-vs-incremental budget-solver size. Nothing is written to
//! disk: the gated, seeded solver measurement is `disq-benchmark`'s
//! `plan_cold` workload (see `disq-benchmark/README.md`).

use disq_core::components::budget_dist::{find_budget_distribution, with_engine, SolverEngine};
use disq_core::{preprocess, DisqConfig};
use disq_crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq_domain::{domains::pictures, Population};
use disq_math::{jacobi_eigen, lstsq_svd, rank1, svd_jacobi, Matrix};
use disq_stats::{GreedyEval, StatsTrio};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` in timed batches for ~0.5 s, prints the median batch time
/// per iteration, and returns that median in seconds.
fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Warm-up + batch sizing: aim for batches of ≥ 1 ms.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut samples = Vec::new();
    let budget = Instant::now();
    while budget.elapsed() < Duration::from_millis(500) && samples.len() < 64 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let unit = if median >= 1e-3 {
        format!("{:.3} ms", median * 1e3)
    } else {
        format!("{:.3} µs", median * 1e6)
    };
    println!(
        "{name:<44} {unit:>12}   ({} samples x {iters} iters)",
        samples.len()
    );
    median
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect(),
    )
}

fn trio(n: usize, rng: &mut StdRng) -> StatsTrio {
    let mut t = StatsTrio::new(1);
    for i in 0..n {
        let cov: Vec<f64> = (0..i).map(|_| rng.random::<f64>() * 0.3).collect();
        t.push_attribute(
            &[rng.random::<f64>() * 0.8],
            &cov,
            1.0,
            0.2 + rng.random::<f64>(),
        )
        .unwrap();
    }
    t.set_target_variance(0, 1.0).unwrap();
    t
}

/// A diagonally-dominant trio (`|off-diag| row sums < 1 = diag`), so
/// `S_a` stays SPD at every size and the engine comparison never routes
/// through the dense fallback — the rows measure the incremental path.
fn dominant_trio(n: usize, rng: &mut StdRng) -> StatsTrio {
    let mut t = StatsTrio::new(1);
    for i in 0..n {
        let cov: Vec<f64> = (0..i).map(|j| 0.15 / (1.0 + (i - j) as f64)).collect();
        t.push_attribute(
            &[0.2 + rng.random::<f64>() * 0.6],
            &cov,
            1.0,
            0.2 + rng.random::<f64>(),
        )
        .unwrap();
    }
    t.set_target_variance(0, 1.0).unwrap();
    t
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    for n in [5usize, 10, 20] {
        let t = trio(n, &mut rng);
        let costs: Vec<Money> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Money::from_cents(0.1)
                } else {
                    Money::from_cents(0.4)
                }
            })
            .collect();
        bench(&format!("greedy_budget_distribution/{n}_attrs"), || {
            find_budget_distribution(
                black_box(&t),
                &[1.0],
                Money::from_cents(4.0),
                black_box(&costs),
            )
            .unwrap();
        });
    }

    // Kernels of the incremental solver, measured in isolation: the
    // rank-1 diagonal update/downdate pair, the bordered append that
    // grows the support, and one full candidate-scoring sweep.
    {
        let n = 16usize;
        let mut packed = vec![0.0; rank1::packed_len(n)];
        for i in 0..n {
            for j in 0..=i {
                packed[rank1::packed_index(i, j)] = if i == j {
                    2.0
                } else {
                    0.15 / (1.0 + (i - j) as f64)
                };
            }
        }
        rank1::cholesky_packed_in_place(&mut packed, n).unwrap();

        let z0: Vec<f64> = (0..n).map(|i| if i == n / 2 { 0.1 } else { 0.0 }).collect();
        let mut z = vec![0.0; n];
        let mut fac = packed.clone();
        bench(&format!("rank1_update_downdate_pair/{n}x{n}"), || {
            z.copy_from_slice(&z0);
            rank1::cholesky_update_packed(black_box(&mut fac), n, &mut z, false).unwrap();
            z.copy_from_slice(&z0);
            rank1::cholesky_update_packed(black_box(&mut fac), n, &mut z, true).unwrap();
        });

        let mut fac = packed.clone();
        let col: Vec<f64> = (0..n).map(|i| 0.1 / (1.0 + i as f64)).collect();
        bench(&format!("cholesky_append/{n}->{}", n + 1), || {
            rank1::cholesky_append_packed(black_box(&mut fac), n, &col, 2.0).unwrap();
            fac.truncate(rank1::packed_len(n));
        });

        let mut rng = StdRng::seed_from_u64(6);
        let t = dominant_trio(n, &mut rng);
        let mut ev = GreedyEval::new();
        ev.begin(&t, &[1.0]);
        for a in 0..n / 2 {
            ev.apply(&t, a).unwrap();
        }
        ev.refresh(&t).unwrap();
        bench(
            &format!("candidate_score_sweep/{n}_attrs_support_8"),
            || {
                let mut acc = 0.0;
                for a in 0..n {
                    acc += ev.score(black_box(&t), a).unwrap();
                }
                black_box(acc);
            },
        );
    }

    // Dense vs incremental engines head-to-head on the full greedy
    // solve, one `budget_dist@k<n>` speedup line per size.
    let mut rng = StdRng::seed_from_u64(7);
    for n in [8usize, 16, 32] {
        let t = dominant_trio(n, &mut rng);
        let costs: Vec<Money> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Money::from_cents(0.1)
                } else {
                    Money::from_cents(0.4)
                }
            })
            .collect();
        let budget = Money::from_cents(4.0);
        let solve = || {
            find_budget_distribution(black_box(&t), &[1.0], budget, black_box(&costs)).unwrap();
        };
        let dense = with_engine(SolverEngine::Dense, || {
            bench(&format!("budget_dist_dense/{n}_attrs"), solve)
        });
        let before = disq_trace::summary();
        let inc = with_engine(SolverEngine::Incremental, || {
            bench(&format!("budget_dist_incremental/{n}_attrs"), solve)
        });
        let fallbacks = disq_trace::summary()
            .delta_since(&before)
            .counter(disq_trace::Counter::SolverFallbacks);
        println!(
            "budget_dist@k{n:<37} speedup {:.1}x   (dense fallbacks: {fallbacks})",
            dense / inc
        );
    }

    let mut rng = StdRng::seed_from_u64(2);
    for (rows, cols) in [(50, 5), (100, 10), (200, 20)] {
        let a = random_matrix(&mut rng, rows, cols);
        bench(&format!("svd_jacobi/{rows}x{cols}"), || {
            svd_jacobi(black_box(&a)).unwrap();
        });
    }

    let mut rng = StdRng::seed_from_u64(3);
    let x = random_matrix(&mut rng, 100, 8);
    let y: Vec<f64> = (0..100).map(|_| rng.random::<f64>()).collect();
    bench("lstsq_svd/100x8", || {
        lstsq_svd(black_box(&x), black_box(&y), 1e-10).unwrap();
    });

    let mut rng = StdRng::seed_from_u64(4);
    for n in [6usize, 12, 24] {
        let b_mat = random_matrix(&mut rng, n, n);
        let mut a = b_mat.transpose().matmul(&b_mat).unwrap();
        a.symmetrize();
        bench(&format!("jacobi_eigen/{n}x{n}"), || {
            jacobi_eigen(black_box(&a)).unwrap();
        });
    }

    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let pop = Population::sample(Arc::clone(&spec), 2_000, &mut rng).unwrap();
    bench("preprocess_end_to_end/pictures_bmi_bprc20", || {
        let mut crowd = SimulatedCrowd::new(
            pop.clone(),
            CrowdConfig::default(),
            Some(Money::from_dollars(20.0)),
            9,
        );
        preprocess(
            &mut crowd,
            &spec,
            &[bmi],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            9,
        )
        .unwrap();
    });
}
