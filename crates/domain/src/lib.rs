//! Object/attribute domains for DisQ.
//!
//! The paper evaluates on objects (people photos, recipes) whose attribute
//! values live in some ground-truth world the crowd can perceive. This
//! crate models that world:
//!
//! * an [`AttributeRegistry`] interning attribute names, with the synonym
//!   normalization the paper assumes ("large/big/grand → one
//!   representative"),
//! * a [`DomainSpec`] describing ground truth: per-attribute means/spreads,
//!   worker answer noise (`S_c`), a full correlation structure, the
//!   empirical dismantling-answer distributions of Table 4, and the
//!   gold-standard related-attribute sets used by the §5.3.1 coverage
//!   experiment,
//! * a [`Population`] of sampled objects drawn from the spec's calibrated
//!   multivariate Gaussian, and
//! * a small [`Query`] model (`select … where …`) whose attribute set
//!   `A(Q)` drives the whole algorithm.
//!
//! Five ready-made domains live under [`domains`]: `pictures` and
//! `recipes` calibrated to the paper's published Tables 4–5, `housing` and
//! `laptops` for the coverage experiment, and a parameterized `synthetic`
//! generator.

#![warn(missing_docs)]

mod attribute;
mod object;
mod population;
mod query;
mod spec;

pub mod domains;

#[cfg(test)]
mod proptests;

pub use attribute::{AttributeId, AttributeRegistry};
pub use object::{DataTable, ObjectId};
pub use population::Population;
pub use query::{ParseError, Predicate, PredicateOp, Query};
pub use spec::{AttributeKind, AttributeSpec, DomainError, DomainSpec, DomainSpecBuilder};
