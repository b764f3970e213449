//! Domain specifications: the ground truth behind a simulated crowd.
//!
//! A [`DomainSpec`] captures everything the paper's real-world experiment
//! setup provided implicitly: the universe of attributes with their value
//! distributions, how noisy crowd answers about each attribute are
//! (`S_c`), how attribute values co-vary (a full correlation matrix,
//! PSD-projected at build time), what the crowd answers when asked to
//! *dismantle* each attribute (the empirical distributions of Table 4),
//! and the gold-standard related-attribute sets used by the coverage
//! experiment (§5.3.1).

use crate::{AttributeId, AttributeRegistry};
use disq_math::{nearest_correlation, MathError, Matrix};
use disq_trace::json::{self, Field, Json};
use std::collections::HashMap;
use std::fmt;

/// Whether an attribute is free-numeric or boolean-in-\[0,1\] (the paper
/// treats booleans as numeric attributes ranged 0..1; the distinction
/// matters for question pricing and for clamping sampled values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeKind {
    /// Unbounded numeric attribute (calories, weight, …).
    Numeric,
    /// Boolean attribute modeled as a number in `\[0, 1\]`.
    Boolean,
}

/// Crosses JSON as `"numeric"` or `"boolean"`.
impl Field for AttributeKind {
    fn encode(&self, out: &mut String) {
        let kind = match self {
            AttributeKind::Numeric => "numeric",
            AttributeKind::Boolean => "boolean",
        };
        json::write_str(out, kind);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        match String::decode(j, ctx, name)?.as_str() {
            "numeric" => Ok(AttributeKind::Numeric),
            "boolean" => Ok(AttributeKind::Boolean),
            other => Err(format!("{ctx}: unknown {name} {other:?}")),
        }
    }
}

/// Ground-truth description of one attribute.
#[derive(Debug, Clone)]
pub struct AttributeSpec {
    /// Canonical display name.
    pub name: String,
    /// Numeric vs boolean (affects pricing and value clamping).
    pub kind: AttributeKind,
    /// Mean of the true value across objects.
    pub mean: f64,
    /// Standard deviation of the true value across objects.
    pub sd: f64,
    /// Standard deviation of a single worker's answer noise (`√S_c`).
    pub worker_sd: f64,
    /// Alternative phrasings the crowd may use for this attribute.
    pub synonyms: Vec<String>,
}

impl AttributeSpec {
    /// Convenience constructor for a numeric attribute without synonyms.
    pub fn numeric(name: &str, mean: f64, sd: f64, worker_sd: f64) -> Self {
        AttributeSpec {
            name: name.to_string(),
            kind: AttributeKind::Numeric,
            mean,
            sd,
            worker_sd,
            synonyms: Vec::new(),
        }
    }

    /// Convenience constructor for a boolean attribute.
    ///
    /// Boolean ground truth is modeled as a per-object *yes-propensity*
    /// `q ∈ \[0, 1\]`; workers cast independent Bernoulli(`q`) votes (see
    /// the crowd simulator). A single vote about an object with propensity
    /// `q` has variance `q(1−q)`, so the average worker-answer variance is
    /// `S_c = E[q(1−q)] = p(1−p) − Var(q)`. Inverting that identity, the
    /// propensity spread is derived from the published `S_c` calibration:
    /// `Var(q) = p(1−p) − worker_sd²` (floored to keep some spread).
    pub fn boolean(name: &str, base_rate: f64, worker_sd: f64) -> Self {
        let p = base_rate.clamp(0.0, 1.0);
        let var_q = (p * (1.0 - p) - worker_sd * worker_sd).max(0.04);
        AttributeSpec {
            name: name.to_string(),
            kind: AttributeKind::Boolean,
            mean: p,
            sd: var_q.sqrt(),
            worker_sd,
            synonyms: Vec::new(),
        }
    }

    /// Adds synonyms (builder-style).
    pub fn with_synonyms(mut self, synonyms: &[&str]) -> Self {
        self.synonyms = synonyms.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// Errors detected while building or using a domain spec.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainError {
    /// A referenced attribute name is not part of the domain.
    UnknownAttribute(String),
    /// A correlation outside [−1, 1] was supplied.
    BadCorrelation {
        /// First attribute name.
        a: String,
        /// Second attribute name.
        b: String,
        /// Offending value.
        rho: f64,
    },
    /// Dismantling answer probabilities for an attribute exceed 1.
    BadDismantleDistribution {
        /// Attribute whose distribution is broken.
        attr: String,
        /// Sum of the answer probabilities.
        total: f64,
    },
    /// An attribute spec had a non-finite or negative spread.
    BadAttributeSpec(String),
    /// The domain has no attributes.
    Empty,
    /// Underlying linear algebra failed (PSD projection).
    Math(MathError),
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::UnknownAttribute(n) => write!(f, "unknown attribute '{n}'"),
            DomainError::BadCorrelation { a, b, rho } => {
                write!(f, "correlation({a}, {b}) = {rho} outside [-1, 1]")
            }
            DomainError::BadDismantleDistribution { attr, total } => {
                write!(f, "dismantle answers for '{attr}' sum to {total} > 1")
            }
            DomainError::BadAttributeSpec(n) => write!(f, "invalid spec for attribute '{n}'"),
            DomainError::Empty => write!(f, "domain has no attributes"),
            DomainError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<MathError> for DomainError {
    fn from(e: MathError) -> Self {
        DomainError::Math(e)
    }
}

/// An immutable, validated domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    name: String,
    registry: AttributeRegistry,
    attrs: Vec<AttributeSpec>,
    /// PSD-projected true-value correlation matrix.
    correlation: Matrix,
    /// Per attribute: empirical dismantling answer distribution
    /// `(answer, probability)`; leftover mass means "junk/irrelevant
    /// answer" and is handled by the crowd simulator.
    dismantle: Vec<Vec<(AttributeId, f64)>>,
    /// Gold-standard related-attribute sets per target attribute.
    gold: HashMap<AttributeId, Vec<AttributeId>>,
}

impl DomainSpec {
    /// Domain display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute name registry (canonical names + synonyms).
    pub fn registry(&self) -> &AttributeRegistry {
        &self.registry
    }

    /// Spec of one attribute.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn attr(&self, id: AttributeId) -> &AttributeSpec {
        &self.attrs[id.index()]
    }

    /// Resolves a name or synonym.
    pub fn id_of(&self, name: &str) -> Option<AttributeId> {
        self.registry.resolve(name)
    }

    /// Resolves a name, erroring with the name on failure.
    pub fn require(&self, name: &str) -> Result<AttributeId, DomainError> {
        self.id_of(name)
            .ok_or_else(|| DomainError::UnknownAttribute(name.to_string()))
    }

    /// True-value correlation between two attributes.
    pub fn correlation(&self, a: AttributeId, b: AttributeId) -> f64 {
        self.correlation[(a.index(), b.index())]
    }

    /// True-value covariance between two attributes.
    pub fn covariance(&self, a: AttributeId, b: AttributeId) -> f64 {
        self.correlation(a, b) * self.attrs[a.index()].sd * self.attrs[b.index()].sd
    }

    /// Full covariance matrix of true values.
    pub fn covariance_matrix(&self) -> Matrix {
        let n = self.n_attrs();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = self.correlation[(i, j)] * self.attrs[i].sd * self.attrs[j].sd;
            }
        }
        m
    }

    /// Mean vector of true values.
    pub fn means(&self) -> Vec<f64> {
        self.attrs.iter().map(|a| a.mean).collect()
    }

    /// One-worker answer variance for an attribute (`S_c`).
    pub fn worker_variance(&self, a: AttributeId) -> f64 {
        let sd = self.attrs[a.index()].worker_sd;
        sd * sd
    }

    /// The dismantling answer distribution for an attribute. Probabilities
    /// sum to at most 1; the remainder is the chance of an irrelevant
    /// answer.
    pub fn dismantle_distribution(&self, a: AttributeId) -> &[(AttributeId, f64)] {
        &self.dismantle[a.index()]
    }

    /// Gold-standard related attributes for a target, if defined.
    pub fn gold_standard(&self, target: AttributeId) -> Option<&[AttributeId]> {
        self.gold.get(&target).map(Vec::as_slice)
    }

    /// All attribute ids in order.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttributeId> {
        (0..self.n_attrs()).map(AttributeId)
    }
}

/// Builder for [`DomainSpec`].
#[derive(Debug, Default)]
pub struct DomainSpecBuilder {
    name: String,
    attrs: Vec<AttributeSpec>,
    correlations: Vec<(String, String, f64)>,
    dismantles: Vec<(String, String, f64)>,
    gold: Vec<(String, Vec<String>)>,
}

impl DomainSpecBuilder {
    /// Starts a new builder for a domain with the given display name.
    pub fn new(name: &str) -> Self {
        DomainSpecBuilder {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds an attribute.
    pub fn attribute(mut self, spec: AttributeSpec) -> Self {
        self.attrs.push(spec);
        self
    }

    /// Declares the true-value correlation between two attributes
    /// (symmetric; last declaration wins).
    pub fn correlation(mut self, a: &str, b: &str, rho: f64) -> Self {
        self.correlations.push((a.to_string(), b.to_string(), rho));
        self
    }

    /// Declares that dismantling `from` yields the answer `to` with the
    /// given probability (Table 4 rows).
    pub fn dismantle(mut self, from: &str, to: &str, prob: f64) -> Self {
        self.dismantles
            .push((from.to_string(), to.to_string(), prob));
        self
    }

    /// Declares the gold-standard related-attribute set of a target.
    pub fn gold_standard(mut self, target: &str, related: &[&str]) -> Self {
        self.gold.push((
            target.to_string(),
            related.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Validates everything and produces the immutable spec. The supplied
    /// pairwise correlations are assembled into a full matrix (unspecified
    /// pairs default to 0) and projected to the nearest valid correlation
    /// matrix, so a calibration transcribed from rounded published tables
    /// is always accepted.
    pub fn build(self) -> Result<DomainSpec, DomainError> {
        if self.attrs.is_empty() {
            return Err(DomainError::Empty);
        }
        let mut registry = AttributeRegistry::new();
        for a in &self.attrs {
            if !a.mean.is_finite()
                || !a.sd.is_finite()
                || a.sd < 0.0
                || !a.worker_sd.is_finite()
                || a.worker_sd < 0.0
            {
                return Err(DomainError::BadAttributeSpec(a.name.clone()));
            }
            registry.register(&a.name);
        }
        // Synonyms after all canonical names so a synonym can never shadow
        // a real attribute.
        for (i, a) in self.attrs.iter().enumerate() {
            for syn in &a.synonyms {
                registry.register_synonym(syn, AttributeId(i));
            }
        }
        let n = self.attrs.len();
        let resolve = |name: &str| -> Result<AttributeId, DomainError> {
            registry
                .resolve(name)
                .ok_or_else(|| DomainError::UnknownAttribute(name.to_string()))
        };

        let mut corr = Matrix::identity(n);
        for (a, b, rho) in &self.correlations {
            if !(-1.0..=1.0).contains(rho) || !rho.is_finite() {
                return Err(DomainError::BadCorrelation {
                    a: a.clone(),
                    b: b.clone(),
                    rho: *rho,
                });
            }
            let ia = resolve(a)?;
            let ib = resolve(b)?;
            corr[(ia.index(), ib.index())] = *rho;
            corr[(ib.index(), ia.index())] = *rho;
        }
        let correlation = nearest_correlation(&corr, 1e-6)?;

        let mut dismantle: Vec<Vec<(AttributeId, f64)>> = vec![Vec::new(); n];
        for (from, to, prob) in &self.dismantles {
            let f = resolve(from)?;
            let t = resolve(to)?;
            if !(0.0..=1.0).contains(prob) {
                return Err(DomainError::BadDismantleDistribution {
                    attr: from.clone(),
                    total: *prob,
                });
            }
            dismantle[f.index()].push((t, *prob));
        }
        for (i, dist) in dismantle.iter().enumerate() {
            let total: f64 = dist.iter().map(|(_, p)| p).sum();
            if total > 1.0 + 1e-9 {
                return Err(DomainError::BadDismantleDistribution {
                    attr: self.attrs[i].name.clone(),
                    total,
                });
            }
        }

        let mut gold = HashMap::new();
        for (target, related) in &self.gold {
            let t = resolve(target)?;
            let ids = related
                .iter()
                .map(|r| resolve(r))
                .collect::<Result<Vec<_>, _>>()?;
            gold.insert(t, ids);
        }

        Ok(DomainSpec {
            name: self.name,
            registry,
            attrs: self.attrs,
            correlation,
            dismantle,
            gold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DomainSpec {
        DomainSpecBuilder::new("tiny")
            .attribute(AttributeSpec::numeric("Target", 10.0, 2.0, 1.0))
            .attribute(
                AttributeSpec::boolean("Flag", 0.4, 0.3).with_synonyms(&["indicator", "mark"]),
            )
            .correlation("Target", "Flag", 0.6)
            .dismantle("Target", "Flag", 0.5)
            .gold_standard("Target", &["Flag"])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_basics() {
        let d = tiny();
        assert_eq!(d.name(), "tiny");
        assert_eq!(d.n_attrs(), 2);
        let t = d.require("target").unwrap();
        let f = d.require("flag").unwrap();
        assert_eq!(d.attr(t).name, "Target");
        assert!((d.correlation(t, f) - 0.6).abs() < 1e-9);
        assert!((d.covariance(t, f) - 0.6 * 2.0 * d.attr(f).sd).abs() < 1e-9);
        assert_eq!(d.worker_variance(t), 1.0);
    }

    #[test]
    fn synonyms_resolve() {
        let d = tiny();
        assert_eq!(d.id_of("indicator"), d.id_of("Flag"));
        assert_eq!(d.id_of("MARK"), d.id_of("Flag"));
    }

    #[test]
    fn boolean_spec_derives_propensity_spread_from_sc() {
        // Var(q) = p(1-p) - S_c: workers who agree a lot (small S_c) imply
        // extreme propensities (large spread).
        let b = AttributeSpec::boolean("X", 0.5, 0.1_f64.sqrt());
        assert!((b.sd * b.sd - (0.25 - 0.1)).abs() < 1e-12);
        let consistent = AttributeSpec::boolean("Y", 0.5, 0.05_f64.sqrt());
        assert!(consistent.sd > b.sd);
        // Floored so degenerate calibrations keep some spread.
        let degenerate = AttributeSpec::boolean("Z", 0.0, 0.1);
        assert!((degenerate.sd * degenerate.sd - 0.04).abs() < 1e-12);
    }

    #[test]
    fn dismantle_distribution_stored() {
        let d = tiny();
        let t = d.require("Target").unwrap();
        let dist = d.dismantle_distribution(t);
        assert_eq!(dist.len(), 1);
        assert!((dist[0].1 - 0.5).abs() < 1e-12);
        let f = d.require("Flag").unwrap();
        assert!(d.dismantle_distribution(f).is_empty());
    }

    #[test]
    fn gold_standard_lookup() {
        let d = tiny();
        let t = d.require("Target").unwrap();
        let f = d.require("Flag").unwrap();
        assert_eq!(d.gold_standard(t), Some(&[f][..]));
        assert_eq!(d.gold_standard(f), None);
    }

    #[test]
    fn covariance_matrix_symmetric_psd() {
        let d = tiny();
        let m = d.covariance_matrix();
        assert!(m.is_symmetric(1e-12));
        assert!(disq_math::Cholesky::new_with_jitter(&m).is_ok());
    }

    #[test]
    fn infeasible_correlations_are_repaired() {
        // +0.95, +0.95, -0.95 triangle is not PSD; build must repair it.
        let d = DomainSpecBuilder::new("broken")
            .attribute(AttributeSpec::numeric("A", 0.0, 1.0, 1.0))
            .attribute(AttributeSpec::numeric("B", 0.0, 1.0, 1.0))
            .attribute(AttributeSpec::numeric("C", 0.0, 1.0, 1.0))
            .correlation("A", "B", 0.95)
            .correlation("B", "C", 0.95)
            .correlation("A", "C", -0.95)
            .build()
            .unwrap();
        let (a, b) = (d.require("A").unwrap(), d.require("B").unwrap());
        // Repaired correlation is valid but close in spirit.
        assert!(d.correlation(a, b) > 0.3);
        assert!(d.correlation(a, a) == 1.0 || (d.correlation(a, a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(matches!(
            DomainSpecBuilder::new("x").build(),
            Err(DomainError::Empty)
        ));
        assert!(matches!(
            DomainSpecBuilder::new("x")
                .attribute(AttributeSpec::numeric("A", 0.0, -1.0, 1.0))
                .build(),
            Err(DomainError::BadAttributeSpec(_))
        ));
        assert!(matches!(
            DomainSpecBuilder::new("x")
                .attribute(AttributeSpec::numeric("A", 0.0, 1.0, 1.0))
                .correlation("A", "Nope", 0.5)
                .build(),
            Err(DomainError::UnknownAttribute(_))
        ));
        assert!(matches!(
            DomainSpecBuilder::new("x")
                .attribute(AttributeSpec::numeric("A", 0.0, 1.0, 1.0))
                .attribute(AttributeSpec::numeric("B", 0.0, 1.0, 1.0))
                .correlation("A", "B", 1.5)
                .build(),
            Err(DomainError::BadCorrelation { .. })
        ));
        assert!(matches!(
            DomainSpecBuilder::new("x")
                .attribute(AttributeSpec::numeric("A", 0.0, 1.0, 1.0))
                .attribute(AttributeSpec::numeric("B", 0.0, 1.0, 1.0))
                .dismantle("A", "B", 0.7)
                .dismantle("A", "B", 0.7)
                .build(),
            Err(DomainError::BadDismantleDistribution { .. })
        ));
    }

    #[test]
    fn require_reports_name() {
        let d = tiny();
        match d.require("missing") {
            Err(DomainError::UnknownAttribute(n)) => assert_eq!(n, "missing"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let e = DomainError::UnknownAttribute("x".into());
        assert!(e.to_string().contains('x'));
    }
}
