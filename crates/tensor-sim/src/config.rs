//! Shared configuration validation error.
//!
//! A config is a `pub`-field struct, a preset or `Default`, struct-update
//! syntax, and a `validate()` that reports the first bad field as a
//! [`ConfigError`]. The constructors that consume a config
//! (`Measurer::new`, `PpoAgent::new`, `Searcher::new`,
//! `SearchCore::finetune`) call it and panic with the error's `Display`,
//! so a bad value stops at construction instead of mid-search.
//!
//! A config field exists only where two non-test callers set different
//! values. A value that every caller leaves at its default is a named
//! `const` beside the code that reads it, and a price of the simulated
//! clock is an entry of [`crate::measure::PRICES`].

use std::fmt;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, e.g. `"measure.noise"`.
    pub field: &'static str,
    /// Human-readable description of the constraint that failed.
    pub message: String,
}

impl ConfigError {
    /// A new error for `field` with a constraint `message`.
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        ConfigError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}
