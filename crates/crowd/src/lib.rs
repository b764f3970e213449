//! Simulated crowdsourcing substrate for DisQ.
//!
//! The paper ran on CrowdFlower with paid human workers; this crate
//! reproduces that environment faithfully enough that the algorithm's code
//! path is identical:
//!
//! * the four question types of §2 — value, dismantling, verification and
//!   example questions ([`CrowdPlatform`]),
//! * the paper's worker model — independent workers whose value answers are
//!   the true value plus zero-mean noise with per-attribute variance `S_c`,
//!   whose dismantling answers follow the empirical distributions of
//!   Table 4 (plus junk and synonym phrasing for the §5.4 robustness
//!   experiments), and whose verification answers lean "yes" in proportion
//!   to the true correlation ([`SimulatedCrowd`], [`CrowdConfig`]),
//! * the paper's price sheet — 0.1¢ binary / 0.4¢ numeric value questions,
//!   1.5¢ dismantling, 5¢ examples ([`PricingModel`], exact fixed-point
//!   [`Money`]),
//! * budget accounting with hard caps ([`BudgetLedger`]), and
//! * the spam filtering the paper assumes is employed
//!   ([`filter_spam_into`]).

#![warn(missing_docs)]

mod coalesce;
mod error;
mod ledger;
mod money;
mod platform;
mod pricing;
mod question;
mod spam;
mod worker;

#[cfg(test)]
mod proptests;

pub use coalesce::{BatcherStats, CoalescingCrowd, QueryCrowd};
pub use error::CrowdError;
pub use ledger::{BudgetLedger, LedgerSnapshot, SpendDelta};
pub use money::Money;
pub use platform::{CrowdConfig, CrowdPlatform, SimulatedCrowd, ValueSource};
pub use pricing::PricingModel;
pub use question::QuestionKind;
pub use spam::{filter_spam_into, SpamStats};
pub use worker::{
    WorkerConfig, WorkerId, WorkerLedger, WorkerModel, WorkerPool, WorkerProfile, WorkerTally,
};
