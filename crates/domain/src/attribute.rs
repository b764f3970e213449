//! Attribute identifiers and the name registry.
//!
//! Attribute names come back from the crowd as free text; the paper assumes
//! "answers that refer to the same property (like *large, big, grand*) can
//! be reasonably identified and merged to a single representative". The
//! registry does that merge: it interns canonical names, maps registered
//! synonyms onto them, and normalizes case/whitespace.

use disq_trace::json::{Field, Json};
use std::collections::HashMap;
use std::fmt;

/// Index of an attribute inside a domain/registry.
///
/// A newtype rather than a bare `usize` so object values, budgets and
/// statistics can never be indexed by the wrong kind of integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeId(pub usize);

impl AttributeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

/// Crosses JSON as its raw index.
impl Field for AttributeId {
    fn encode(&self, out: &mut String) {
        self.0.encode(out);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        usize::decode(j, ctx, name).map(AttributeId)
    }
}

/// Longest key, in bytes, that [`AttributeRegistry::resolve`] normalizes
/// on the stack.
const STACK_KEY: usize = 64;

/// [`AttributeRegistry::normalize_key`] of ASCII text, written into `buf`.
/// `None` when `name` is not ASCII or its key does not fit.
///
/// For ASCII text the key is the whitespace-separated words, lowercased
/// and joined by `_`: trimming is implied by the split, and lowercasing
/// ASCII neither changes a byte's length nor makes it whitespace.
fn normalize_ascii_key<'a>(name: &str, buf: &'a mut [u8]) -> Option<&'a str> {
    if !name.is_ascii() {
        return None;
    }
    let mut len = 0;
    for word in name.split_whitespace() {
        if len > 0 {
            *buf.get_mut(len)? = b'_';
            len += 1;
        }
        let dest = buf.get_mut(len..len + word.len())?;
        dest.copy_from_slice(word.as_bytes());
        dest.make_ascii_lowercase();
        len += word.len();
    }
    std::str::from_utf8(&buf[..len]).ok()
}

/// Interns attribute names and resolves synonyms to canonical attributes.
#[derive(Debug, Clone, Default)]
pub struct AttributeRegistry {
    names: Vec<String>,
    by_key: HashMap<String, AttributeId>,
}

impl AttributeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical text key: lowercase, trimmed, inner whitespace collapsed
    /// to single underscores.
    pub fn normalize_key(name: &str) -> String {
        name.trim()
            .to_lowercase()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Registers a canonical attribute name, returning its id. Re-registering
    /// the same (normalized) name returns the existing id.
    pub fn register(&mut self, name: &str) -> AttributeId {
        let key = Self::normalize_key(name);
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = AttributeId(self.names.len());
        self.names.push(name.trim().to_string());
        self.by_key.insert(key, id);
        id
    }

    /// Registers `synonym` as an alias of the attribute `of`.
    ///
    /// # Panics
    /// Panics if `of` is not a valid id of this registry.
    pub fn register_synonym(&mut self, synonym: &str, of: AttributeId) {
        assert!(of.index() < self.names.len(), "unknown attribute {of}");
        let key = Self::normalize_key(synonym);
        self.by_key.entry(key).or_insert(of);
    }

    /// Resolves free text (canonical name or synonym) to an id.
    ///
    /// ASCII text whose key fits in 64 bytes is normalized on the stack,
    /// so resolving it allocates nothing; other text goes through
    /// [`AttributeRegistry::normalize_key`].
    pub fn resolve(&self, name: &str) -> Option<AttributeId> {
        let mut buf = [0; STACK_KEY];
        match normalize_ascii_key(name, &mut buf) {
            Some(key) => self.by_key.get(key),
            None => self.by_key.get(&Self::normalize_key(name)),
        }
        .copied()
    }

    /// Canonical display name for an id.
    ///
    /// # Panics
    /// Panics on an id from a different registry.
    pub fn name(&self, id: AttributeId) -> &str {
        &self.names[id.index()]
    }

    /// Number of canonical attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no attributes are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, canonical name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttributeId(i), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_resolve() {
        let mut reg = AttributeRegistry::new();
        let id = reg.register("Number of Eggs");
        assert_eq!(reg.resolve("number of eggs"), Some(id));
        assert_eq!(reg.resolve("  Number_Of_Eggs "), Some(id));
        assert_eq!(reg.name(id), "Number of Eggs");
    }

    #[test]
    fn reregistering_returns_same_id() {
        let mut reg = AttributeRegistry::new();
        let a = reg.register("Weight");
        let b = reg.register("weight");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn synonyms_resolve_to_canonical() {
        let mut reg = AttributeRegistry::new();
        let heavy = reg.register("Heavy");
        reg.register_synonym("big", heavy);
        reg.register_synonym("LARGE", heavy);
        assert_eq!(reg.resolve("large"), Some(heavy));
        assert_eq!(reg.resolve("big"), Some(heavy));
        // Canonical name untouched.
        assert_eq!(reg.name(heavy), "Heavy");
    }

    #[test]
    fn synonym_does_not_shadow_existing_name() {
        let mut reg = AttributeRegistry::new();
        let a = reg.register("Fat");
        let b = reg.register("Heavy");
        // Registering "fat" as a synonym of Heavy must not clobber the
        // canonical attribute Fat.
        reg.register_synonym("fat", b);
        assert_eq!(reg.resolve("fat"), Some(a));
    }

    #[test]
    fn unknown_name_resolves_to_none() {
        let reg = AttributeRegistry::new();
        assert_eq!(reg.resolve("anything"), None);
    }

    #[test]
    fn normalize_key_collapses_whitespace() {
        assert_eq!(
            AttributeRegistry::normalize_key("  Good   Facial\tFeatures "),
            "good_facial_features"
        );
    }

    #[test]
    fn stack_key_matches_normalize_key() {
        let long = "word ".repeat(20);
        for name in [
            "Bmi",
            "  Good   Facial\tFeatures ",
            "Number_Of_Eggs",
            "MiXeD cAsE\n\r\x0bvertical\x0ctab",
            "\t lead and trail \t",
            "__under  _scores_",
            "",
            "   ",
            "a",
            &"x".repeat(STACK_KEY),
        ] {
            let mut buf = [0; STACK_KEY];
            assert_eq!(
                normalize_ascii_key(name, &mut buf),
                Some(AttributeRegistry::normalize_key(name).as_str()),
                "{name:?}"
            );
        }
        // Too long for the stack, or not ASCII: the allocating path.
        for name in [
            long.as_str(),
            &"x".repeat(STACK_KEY + 1),
            "Café Crème",
            "a\u{a0}b",
        ] {
            assert_eq!(
                normalize_ascii_key(name, &mut [0; STACK_KEY]),
                None,
                "{name:?}"
            );
        }
        let mut reg = AttributeRegistry::new();
        let cafe = reg.register("Café Crème");
        assert_eq!(reg.resolve("  CAFÉ   crème"), Some(cafe));
        let words = reg.register(&long);
        assert_eq!(reg.resolve(&long.to_uppercase()), Some(words));
    }

    #[test]
    fn iter_yields_all() {
        let mut reg = AttributeRegistry::new();
        reg.register("A");
        reg.register("B");
        let pairs: Vec<_> = reg.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (AttributeId(0), "A"));
        assert_eq!(pairs[1], (AttributeId(1), "B"));
    }

    #[test]
    fn display_format() {
        assert_eq!(AttributeId(3).to_string(), "attr#3");
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn synonym_of_unknown_id_panics() {
        let mut reg = AttributeRegistry::new();
        reg.register_synonym("x", AttributeId(5));
    }
}
