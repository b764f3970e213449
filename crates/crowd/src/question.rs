//! Question taxonomy (§2).

use std::fmt;

/// The four crowd question types of the paper, used for pricing and ledger
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuestionKind {
    /// "What is the value of o.a?" for a boolean attribute (0.1¢).
    BinaryValue,
    /// "What is the value of o.a?" for a numeric attribute (0.4¢).
    NumericValue,
    /// "Which attribute may help estimate a?" (1.5¢).
    Dismantle,
    /// "Does knowing X help determine Y?" (priced as a binary question).
    Verify,
    /// "Provide an example object along with attribute values" (5¢).
    Example,
}

impl QuestionKind {
    /// All kinds, for reporting.
    pub const ALL: [QuestionKind; 5] = [
        QuestionKind::BinaryValue,
        QuestionKind::NumericValue,
        QuestionKind::Dismantle,
        QuestionKind::Verify,
        QuestionKind::Example,
    ];
}

impl fmt::Display for QuestionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuestionKind::BinaryValue => "binary value",
            QuestionKind::NumericValue => "numeric value",
            QuestionKind::Dismantle => "dismantle",
            QuestionKind::Verify => "verify",
            QuestionKind::Example => "example",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_distinctly() {
        let mut seen = std::collections::HashSet::new();
        for k in QuestionKind::ALL {
            assert!(seen.insert(k.to_string()));
        }
        assert_eq!(seen.len(), 5);
    }
}
