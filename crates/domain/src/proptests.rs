//! Property-based tests for the domain layer.

use crate::*;
use disq_math::is_psd;
use proptest::prelude::*;

/// Strategy: a set of attribute names.
fn attr_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("Attr {i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_always_produces_psd_correlations(
        entries in proptest::collection::vec((0usize..6, 0usize..6, -1.0_f64..1.0), 0..15),
    ) {
        let names = attr_names(6);
        let mut b = DomainSpecBuilder::new("prop");
        for name in &names {
            b = b.attribute(AttributeSpec::numeric(name, 0.0, 1.0, 0.5));
        }
        for (i, j, rho) in &entries {
            if i != j {
                b = b.correlation(&names[*i], &names[*j], *rho);
            }
        }
        let spec = b.build().unwrap();
        let n = spec.n_attrs();
        let mut m = disq_math::Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = spec.correlation(AttributeId(i), AttributeId(j));
                prop_assert!(m[(i, j)].abs() <= 1.0 + 1e-9);
            }
        }
        prop_assert!(is_psd(&m, 1e-6).unwrap());
        for i in 0..n {
            prop_assert!((m[(i, i)] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn registry_roundtrips_arbitrary_names(
        raw in proptest::collection::vec("[A-Za-z][A-Za-z0-9 ]{0,20}", 1..10),
    ) {
        let mut reg = AttributeRegistry::new();
        let ids: Vec<_> = raw.iter().map(|n| reg.register(n)).collect();
        for (name, &id) in raw.iter().zip(&ids) {
            prop_assert_eq!(reg.resolve(name), Some(id));
            // Case-insensitive resolution.
            prop_assert_eq!(reg.resolve(&name.to_uppercase()), Some(id));
        }
        // Registering again never creates new ids.
        let len = reg.len();
        for name in &raw {
            reg.register(name);
        }
        prop_assert_eq!(reg.len(), len);
    }

    #[test]
    fn boolean_propensities_stay_in_unit_interval(
        base in 0.05_f64..0.95,
        sc in 0.01_f64..0.24,
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let spec = std::sync::Arc::new(
            DomainSpecBuilder::new("prop")
                .attribute(AttributeSpec::boolean("B", base, sc.sqrt()))
                .attribute(AttributeSpec::numeric("X", 0.0, 1.0, 1.0))
                .correlation("B", "X", 0.4)
                .build()
                .unwrap(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pop = Population::sample(spec, 200, &mut rng).unwrap();
        for &q in pop.column(AttributeId(0)) {
            prop_assert!((0.0..=1.0).contains(&q), "propensity {q}");
        }
    }

    #[test]
    fn sharpening_hits_target_sc(
        base in 0.2_f64..0.8,
        sc in 0.02_f64..0.15,
        seed in 0u64..200,
    ) {
        use rand::SeedableRng;
        let spec = std::sync::Arc::new(
            DomainSpecBuilder::new("prop")
                .attribute(AttributeSpec::boolean("B", base, sc.sqrt()))
                .build()
                .unwrap(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pop = Population::sample(spec, 4_000, &mut rng).unwrap();
        let qs = pop.column(AttributeId(0));
        let mean_sc = qs.iter().map(|&q| q * (1.0 - q)).sum::<f64>() / qs.len() as f64;
        // Either the raw distribution was already below target, or the
        // sharpening bisection landed on it.
        prop_assert!(mean_sc <= sc + 0.02, "measured S_c {mean_sc} vs target {sc}");
    }

    #[test]
    fn sample_in_blocks_matches_sample_for_any_block_size(
        block in 1usize..70,
        n in 0usize..60,
        seed in 0u64..200,
    ) {
        use rand::SeedableRng;
        let spec = std::sync::Arc::new(
            DomainSpecBuilder::new("prop")
                .attribute(AttributeSpec::numeric("X", 2.0, 1.5, 0.5))
                .attribute(AttributeSpec::boolean("B", 0.4, 0.3))
                .correlation("X", "B", -0.3)
                .build()
                .unwrap(),
        );
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        let serial = Population::sample(std::sync::Arc::clone(&spec), n, &mut a).unwrap();
        let blocked =
            Population::sample_in_blocks(std::sync::Arc::clone(&spec), n, block, &mut b).unwrap();
        for attr in spec.attribute_ids() {
            prop_assert_eq!(serial.column(attr), blocked.column(attr));
        }
        // The RNGs must land on the same stream position too.
        prop_assert_eq!(rand::RngCore::next_u64(&mut a), rand::RngCore::next_u64(&mut b));
    }

    #[test]
    fn query_parser_handles_generated_predicates(
        value in -1000.0_f64..1000.0,
        op_idx in 0usize..5,
    ) {
        let mut reg = AttributeRegistry::new();
        reg.register("alpha");
        reg.register("beta");
        let op = ["<", "<=", ">", ">=", "="][op_idx];
        let text = format!("select alpha where beta {op} {value}");
        let q = Query::parse(&text, &reg).unwrap();
        prop_assert_eq!(q.select.len(), 1);
        prop_assert_eq!(q.predicates.len(), 1);
        prop_assert!((q.predicates[0].value - value).abs() < 1e-9);
        prop_assert_eq!(q.attributes().len(), 2);
    }
}
