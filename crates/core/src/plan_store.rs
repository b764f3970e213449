//! Versioned on-disk store for complete [`PreprocessOutput`]s — the one
//! plan serialization.
//!
//! The `(b, l)` plan travels together with the statistics trio, the
//! budget distribution and the diagnostics, so a restarted daemon (or
//! any later online process) warm-starts with *exactly* the state the
//! original `preprocess` run produced. This module stores the full
//! output as JSON under a version-stamped envelope keyed by
//! `(domain, attribute, seed)`.
//!
//! **One declaration per record.** Each record (envelope, output, plan,
//! planned attribute, regression, stats) is declared once below with
//! [`disq_trace::record!`], which derives its encoder and its decoder
//! from the member list, in key order; the trio's record sits beside
//! `StatsTrio`. Members cross through [`disq_trace::json::Field`]:
//! attribute ids as integers, kinds as `"numeric"`/`"boolean"`, money
//! as integer milli-cents, the trio as rows through `from_parts`, and
//! counts as integers no larger than `u32::MAX` (never wrapped).
//!
//! **Byte-identity contract**: `output_to_json ∘ output_from_json ∘
//! output_to_json` is the identity on strings. Floats use the exact
//! codec shared with traces ([`disq_trace::json::write_f64_exact`]):
//! the shortest round-trip decimal when finite (keeping `-0.0`
//! distinct), and a `"bits:<16 hex digits>"` string otherwise — the trio
//! holds `NaN` for never-measured entries, and even NaN payloads survive.
//!
//! **Validation after decoding.** The version is checked before the body
//! is decoded, and the decoded plan takes one validation pass: every
//! planned attribute asks a question and every regression has one
//! coefficient per planned attribute. [`check_domain`] adds the domain
//! to that pass: every planned id and regression target must lie inside
//! it, each planned kind equal to the spec's.

use crate::{
    DisqError, EvaluationPlan, PlannedAttribute, PreprocessOutput, PreprocessStats,
    TargetRegression,
};
use disq_domain::{AttributeId, DomainSpec};
use disq_trace::json::{self, Field, Json};
use disq_trace::record;
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};

/// Format version stamped into every stored plan; readers reject
/// anything else.
pub const PLAN_STORE_VERSION: u64 = 1;

/// Environment variable naming the plan-store directory. Unset means no
/// on-disk store (plans live only in the in-memory cache).
pub const PLAN_DIR_ENV: &str = "DISQ_PLAN_DIR";

/// Identity of a stored plan: which domain/attribute it answers and the
/// preprocessing seed it was computed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMeta {
    /// Domain name (`DomainSpec::name`).
    pub domain: String,
    /// Query attribute label the plan was preprocessed for.
    pub attribute: String,
    /// Seed of the preprocessing run (crowd + algorithm).
    pub seed: u64,
}

/// One stored plan; the output is borrowed while encoding.
struct Envelope<'a> {
    disq_plan_version: u64,
    domain: String,
    attribute: String,
    seed: u64,
    output: Cow<'a, PreprocessOutput>,
}

record!(Envelope<'_> { disq_plan_version, domain, attribute, seed, output });
record!(PreprocessOutput { plan, trio, pool_labels, budget with counts, weights, stats });
record!(EvaluationPlan {
    attributes,
    regressions
});
record!(PlannedAttribute { attr, label, kind, questions with count });
record!(TargetRegression {
    target,
    label,
    intercept,
    coefficients,
    training_mse
});
record!(PreprocessStats {
    n1_used,
    dismantle_questions with count,
    discovered,
    rejected with count,
    junk with count,
    duplicates with count,
    spent as "spent_millicents",
    fell_back,
});

/// Reads a count, rejecting one that `as u32` would wrap.
fn count(j: Option<&Json>, ctx: &str, name: &str) -> Result<u32, String> {
    narrow(u64::decode(j, ctx, name)?, ctx, name)
}

/// Reads a list of counts.
fn counts(j: Option<&Json>, ctx: &str, name: &str) -> Result<Vec<u32>, String> {
    let counts = Vec::<u64>::decode(j, ctx, name)?;
    counts.into_iter().map(|n| narrow(n, ctx, name)).collect()
}

fn narrow(n: u64, ctx: &str, name: &str) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{ctx}: {name} exceeds u32::MAX"))
}

fn store_error(e: String) -> DisqError {
    DisqError::Config(format!("plan store: {e}"))
}

/// Serializes `output` plus its identity into the versioned envelope.
pub fn output_to_json(output: &PreprocessOutput, meta: &PlanMeta) -> String {
    let mut s = String::with_capacity(1024);
    Envelope {
        disq_plan_version: PLAN_STORE_VERSION,
        domain: meta.domain.clone(),
        attribute: meta.attribute.clone(),
        seed: meta.seed,
        output: Cow::Borrowed(output),
    }
    .encode(&mut s);
    s
}

/// Parses an envelope produced by [`output_to_json`], rejecting version
/// mismatches, shape errors and plans that fail the validation pass (see
/// the module docs).
pub fn output_from_json(text: &str) -> Result<(PreprocessOutput, PlanMeta), DisqError> {
    let root = json::parse(text).map_err(store_error)?;
    let version = u64::decode(
        root.get("disq_plan_version"),
        "envelope",
        "disq_plan_version",
    )
    .map_err(store_error)?;
    if version != PLAN_STORE_VERSION {
        return Err(store_error(format!(
            "unsupported version {version} (expected {PLAN_STORE_VERSION})"
        )));
    }
    let envelope = Envelope::decode(Some(&root), "file", "envelope").map_err(store_error)?;
    let output = envelope.output.into_owned();
    validate(&output.plan, None).map_err(store_error)?;
    let meta = PlanMeta {
        domain: envelope.domain,
        attribute: envelope.attribute,
        seed: envelope.seed,
    };
    Ok((output, meta))
}

/// Runs the validation pass on `plan` with the domain it will serve (see
/// the module docs). The online phase indexes the domain by the plan's
/// ids, so a stored plan that fails would panic every query it answers.
pub fn check_domain(plan: &EvaluationPlan, spec: &DomainSpec) -> Result<(), DisqError> {
    validate(plan, Some(spec)).map_err(store_error)
}

/// The validation pass over a decoded plan; `spec` adds the domain.
fn validate(plan: &EvaluationPlan, spec: Option<&DomainSpec>) -> Result<(), String> {
    let lookup = |id: AttributeId, label: &str| match spec {
        Some(spec) if id.index() >= spec.n_attrs() => {
            let (i, name, n) = (id.index(), spec.name(), spec.n_attrs());
            Err(format!(
                "'{label}' names attribute {i} outside domain '{name}' ({n} attributes)"
            ))
        }
        Some(spec) => Ok(Some(spec.attr(id))),
        None => Ok(None),
    };
    for p in &plan.attributes {
        if p.questions == 0 {
            return Err(format!("attribute '{}' plans 0 questions", p.label));
        }
        if let Some(a) = lookup(p.attr, &p.label)? {
            if a.kind != p.kind {
                return Err(format!(
                    "attribute '{}' is planned {:?}, but the domain's '{}' is {:?}",
                    p.label, p.kind, a.name, a.kind
                ));
            }
        }
    }
    for r in &plan.regressions {
        if r.coefficients.len() != plan.attributes.len() {
            return Err(format!(
                "regression '{}' has {} coefficients for {} planned attributes",
                r.label,
                r.coefficients.len(),
                plan.attributes.len()
            ));
        }
        lookup(r.target, &r.label)?;
    }
    Ok(())
}

/// Replaces every byte that could upset a filesystem with `_` so plan
/// keys map to safe file names.
fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Directory of stored plans, one JSON file per `(domain, attribute,
/// seed)` key.
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

impl PlanStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PlanStore { dir: dir.into() }
    }

    /// The store named by [`PLAN_DIR_ENV`], or `None` when unset/empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(PLAN_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => Some(PlanStore::new(dir.trim())),
            _ => None,
        }
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of the plan for this key.
    pub fn path_for(&self, domain: &str, attribute: &str, seed: u64) -> PathBuf {
        self.dir.join(format!(
            "{}__{}__{seed}.plan.json",
            sanitize(domain),
            sanitize(attribute)
        ))
    }

    /// Persists `output` under its meta key; returns the file written.
    pub fn save(&self, output: &PreprocessOutput, meta: &PlanMeta) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(&meta.domain, &meta.attribute, meta.seed);
        std::fs::write(&path, output_to_json(output, meta))?;
        Ok(path)
    }

    /// Loads the plan stored under the key, if any. A missing file is
    /// `Ok(None)`; a present-but-unreadable file (corrupt JSON, version
    /// or identity mismatch) is an error — silent recompute would hide
    /// store corruption.
    pub fn load(
        &self,
        domain: &str,
        attribute: &str,
        seed: u64,
    ) -> Result<Option<PreprocessOutput>, DisqError> {
        let path = self.path_for(domain, attribute, seed);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(store_error(format!("cannot read {}: {e}", path.display()))),
        };
        let (output, meta) = output_from_json(&text)?;
        let expect = PlanMeta {
            domain: domain.to_string(),
            attribute: attribute.to_string(),
            seed,
        };
        if meta != expect {
            let path = path.display();
            return Err(store_error(format!(
                "{path} holds plan for {meta:?}, expected {expect:?}"
            )));
        }
        Ok(Some(output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_crowd::Money;
    use disq_domain::AttributeKind;
    use disq_stats::StatsTrio;

    fn sample_output() -> PreprocessOutput {
        let trio = StatsTrio::from_parts(
            vec![vec![90.0, f64::from_bits(0x7ff8_0000_dead_beef)]],
            vec![vec![0.0, 12.5], vec![12.5, -0.0]],
            vec![90.0, 0.24],
            vec![20.25],
        )
        .unwrap();
        PreprocessOutput {
            plan: EvaluationPlan {
                attributes: vec![
                    PlannedAttribute {
                        attr: AttributeId(0),
                        label: "Bmi".into(),
                        kind: AttributeKind::Numeric,
                        questions: 5,
                    },
                    PlannedAttribute {
                        attr: AttributeId(5),
                        label: "Heavy \"looking\"".into(),
                        kind: AttributeKind::Boolean,
                        questions: 9,
                    },
                ],
                regressions: vec![TargetRegression {
                    target: AttributeId(0),
                    label: "Bmi".into(),
                    intercept: 10.625,
                    coefficients: vec![0.6, -11.9e-3],
                    training_mse: f64::NAN,
                }],
            },
            trio,
            pool_labels: vec!["Bmi".into(), "Heavy \"looking\"".into()],
            budget: vec![5, 9],
            weights: vec![1.0 / 90.0],
            stats: PreprocessStats {
                n1_used: 20,
                dismantle_questions: 12,
                discovered: vec!["Heavy \"looking\"".into()],
                rejected: 2,
                junk: 1,
                duplicates: 3,
                spent: Money::from_cents(27.5),
                fell_back: false,
            },
        }
    }

    fn meta() -> PlanMeta {
        PlanMeta {
            domain: "pictures".into(),
            attribute: "Bmi".into(),
            seed: 42,
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let out = sample_output();
        let text = output_to_json(&out, &meta());
        let (back, m) = output_from_json(&text).unwrap();
        assert_eq!(m, meta());
        assert_eq!(output_to_json(&back, &m), text, "second serialization");
    }

    /// A file this encoder wrote for [`sample_output`] pins the version-1
    /// format: the encoder must reproduce it byte for byte, and so must
    /// decoding it and encoding again.
    #[test]
    fn golden_file_pins_the_v1_format() {
        const GOLDEN: &str = include_str!("../tests/fixtures/plan_store_v1.json");
        assert_eq!(output_to_json(&sample_output(), &meta()), GOLDEN);
        let (back, m) = output_from_json(GOLDEN).unwrap();
        assert_eq!(m, meta());
        assert_eq!(output_to_json(&back, &m), GOLDEN);
    }

    #[test]
    fn roundtrip_preserves_float_bits() {
        let out = sample_output();
        let (back, _) = output_from_json(&output_to_json(&out, &meta())).unwrap();
        // NaN payload and negative zero survive exactly.
        assert_eq!(back.trio.s_o_rows()[0][1].to_bits(), 0x7ff8_0000_dead_beef);
        assert_eq!(back.trio.s_a_rows()[1][1].to_bits(), (-0.0f64).to_bits());
        assert!(back.plan.regressions[0].training_mse.is_nan());
        assert_eq!(back.plan.attributes, out.plan.attributes);
        assert_eq!(back.stats.spent, out.stats.spent);
        assert_eq!(back.budget, out.budget);
        assert_eq!(back.weights, out.weights);
        assert_eq!(back.pool_labels, out.pool_labels);
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = output_to_json(&sample_output(), &meta());
        let bumped = text.replacen("\"disq_plan_version\":1", "\"disq_plan_version\":2", 1);
        let err = output_from_json(&bumped).unwrap_err();
        assert!(
            matches!(&err, DisqError::Config(m) if m.contains("unsupported version 2")),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(output_from_json("").is_err());
        assert!(output_from_json("{}").is_err());
        assert!(output_from_json("{\"disq_plan_version\":1}").is_err());
        // Trio shape violations surface as errors, not panics.
        let text = output_to_json(&sample_output(), &meta());
        let bad = text.replacen("\"s_c\":[90,0.24]", "\"s_c\":[90]", 1);
        assert!(output_from_json(&bad).is_err());
    }

    /// Asserts `text` is rejected with a `Config` error mentioning `what`.
    fn assert_config_error(text: &str, what: &str) {
        let err = output_from_json(text).unwrap_err();
        assert!(
            matches!(&err, DisqError::Config(m) if m.contains(what)),
            "{err:?}"
        );
    }

    #[test]
    fn zero_questions_rejected() {
        let text = output_to_json(&sample_output(), &meta());
        let bad = text.replacen("\"questions\":5", "\"questions\":0", 1);
        assert_config_error(&bad, "plans 0 questions");
    }

    #[test]
    fn counts_beyond_u32_rejected() {
        let text = output_to_json(&sample_output(), &meta());
        // 2^32 + 5 would wrap to a valid-looking 5 through `as u32`.
        let bad = text.replacen("\"questions\":5", "\"questions\":4294967301", 1);
        assert_config_error(&bad, "questions exceeds u32::MAX");
        let bad = text.replacen("\"budget\":[5,9]", "\"budget\":[4294967301,9]", 1);
        assert_config_error(&bad, "budget exceeds u32::MAX");
    }

    #[test]
    fn regression_arity_mismatch_rejected() {
        let text = output_to_json(&sample_output(), &meta());
        for coefficients in ["[0.6]", "[0.6,-0.0119,1]"] {
            let bad = text.replacen("[0.6,-0.0119]", coefficients, 1);
            assert_ne!(bad, text);
            assert_config_error(&bad, "planned attributes");
        }
    }

    /// Asserts `text` fails to decode with exactly `message`.
    fn assert_decode_error(text: &str, message: &str) {
        assert_eq!(
            output_from_json(text).unwrap_err(),
            DisqError::Config(message.into())
        );
    }

    #[test]
    fn decode_errors_name_the_record_and_member() {
        let text = output_to_json(&sample_output(), &meta());
        let bad = text.replacen("\"kind\":\"boolean\"", "\"kind\":\"ordinal\"", 1);
        assert_decode_error(&bad, "plan store: attributes: unknown kind \"ordinal\"");
        let bad = text.replacen("\"junk\":1,", "", 1);
        assert_decode_error(&bad, "plan store: stats: missing integer \"junk\"");
        let bad = text.replacen("\"intercept\":10.625", "\"intercept\":\"10.625\"", 1);
        assert_decode_error(
            &bad,
            "plan store: regressions: missing number \"intercept\"",
        );
        let bad = text.replacen("\"s_c\":[90,0.24]", "\"s_c\":[90]", 1);
        assert_decode_error(
            &bad,
            "plan store: trio: s_o row: expected length 1, found 2",
        );
    }

    #[test]
    fn plans_are_checked_against_their_domain() {
        let spec = disq_domain::domains::pictures::spec();
        let plan = sample_output().plan;
        check_domain(&plan, &spec).unwrap();
        let reject = |edit: fn(&mut EvaluationPlan), message: &str| {
            let mut bad = plan.clone();
            edit(&mut bad);
            let err = check_domain(&bad, &spec).unwrap_err();
            assert_eq!(err, DisqError::Config(format!("plan store: {message}")));
        };
        reject(
            |p| p.attributes[1].attr = AttributeId(999),
            "'Heavy \"looking\"' names attribute 999 outside domain 'pictures' (17 attributes)",
        );
        reject(
            |p| p.attributes[1].kind = AttributeKind::Numeric,
            "attribute 'Heavy \"looking\"' is planned Numeric, but the domain's 'Heavy' is Boolean",
        );
        reject(
            |p| p.regressions[0].target = AttributeId(17),
            "'Bmi' names attribute 17 outside domain 'pictures' (17 attributes)",
        );
        // The decoder's own checks are part of the same pass.
        reject(
            |p| p.attributes[0].questions = 0,
            "attribute 'Bmi' plans 0 questions",
        );
    }

    #[test]
    fn store_saves_and_loads() {
        let dir = std::env::temp_dir().join(format!("disq-plan-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        let out = sample_output();
        assert!(store.load("pictures", "Bmi", 42).unwrap().is_none());
        store.save(&out, &meta()).unwrap();
        let loaded = store.load("pictures", "Bmi", 42).unwrap().unwrap();
        assert_eq!(loaded.plan.attributes, out.plan.attributes);
        assert_eq!(
            output_to_json(&loaded, &meta()),
            output_to_json(&out, &meta())
        );
        // Other keys are still empty.
        assert!(store.load("pictures", "Bmi", 43).unwrap().is_none());
        assert!(store.load("pictures", "Age", 42).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_corrupt_file() {
        let dir = std::env::temp_dir().join(format!("disq-plan-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(store.path_for("pictures", "Bmi", 1), "not json").unwrap();
        assert!(store.load("pictures", "Bmi", 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_sanitized() {
        let store = PlanStore::new("/tmp/x");
        let p = store.path_for("pictures", "Heavy \"looking\"/..", 7);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(name, "pictures__Heavy__looking______7.plan.json");
        assert!(!name.contains('/') && !name.contains('"'));
    }
}
