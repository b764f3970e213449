//! The five logical components of Algorithm 1 (§3.1).
//!
//! * finding attributes — [`next_attribute::choose_dismantle_target`]
//!   (Eq. 8/9) plus SPRT verification, driven from `preprocess`;
//! * collecting statistics — [`statistics::StatisticsCollector`]
//!   (example sets, `k`-sample answers, the inductive trio update);
//! * calculating a budget distribution —
//!   [`budget_dist::find_budget_distribution`] (cost-aware greedy forward
//!   selection of the Eq. 2/10 objective);
//! * learning a linear regression — [`regression::learn_regressions`]
//!   (training-set assembly with `E_B` reuse, SVD least squares);
//! * managing the preprocessing budget — the reservation arithmetic in
//!   [`budgeting`].
//!
//! Each is exposed as a standalone function/struct so alternative
//! implementations can be plugged in, mirroring the paper's "generic
//! black-box description" of the components.

pub mod budget_dist;
pub mod budgeting;
pub mod next_attribute;
pub mod regression;
pub mod statistics;
