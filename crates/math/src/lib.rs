//! Dense linear algebra and numeric kernels for the DisQ crowd-query system.
//!
//! The DisQ algorithm (Laadan & Milo, EDBT 2015) repeatedly evaluates the
//! plan-quality quadratic form `S_oᵀ (S_a + Diag(S_c/b))⁻¹ S_o`, learns
//! linear regressions by SVD least squares, projects estimated covariance
//! matrices to the PSD cone, and samples calibrated multivariate-Gaussian
//! domains. This crate provides all of that from scratch on top of a small
//! row-major [`Matrix`] type — no external linear-algebra dependency.
//!
//! Everything operates on `f64`. Decompositions return [`MathError`] instead
//! of panicking on singular or non-PSD inputs so callers can fall back (e.g.
//! the quadratic-form evaluator retries a Cholesky with jitter before
//! switching to LU).

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // triangular-solve index loops are clearer than iterator gymnastics

mod cholesky;
mod eigen;
mod error;
mod graph;
mod lstsq;
mod lu;
mod matrix;
mod psd;
mod quadform;
pub mod rank1;
mod sampling;
mod svd;

pub use cholesky::Cholesky;
pub use eigen::{jacobi_eigen, SymmetricEigen};
pub use error::MathError;
pub use graph::{shortest_paths, Graph};
pub use lstsq::{lstsq_svd, LeastSquaresFit};
pub use lu::Lu;
pub use matrix::Matrix;
pub use psd::{is_psd, nearest_correlation, nearest_psd};
pub use quadform::QuadFormWorkspace;
pub use sampling::{standard_normal, MultivariateNormal, NormalSampler};
pub use svd::{svd_jacobi, Svd};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MathError>;

/// Tolerance used by decompositions when deciding whether a pivot or
/// singular value is numerically zero, scaled by the matrix magnitude.
pub const EPS: f64 = 1e-12;

#[cfg(test)]
mod proptests;
