//! Run-time errors.

use dml_syntax::Span;
use std::fmt;

/// A run-time evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An array access failed its bound check.
    BoundsViolation {
        /// Index requested.
        index: i64,
        /// Array length.
        len: usize,
        /// Call site.
        site: Span,
    },
    /// A list access failed its tag check (index ≥ length).
    TagViolation {
        /// Index requested.
        index: i64,
        /// Call site.
        site: Span,
    },
    /// An *eliminated* access was out of bounds — only observable with
    /// [`CheckConfig::validate`](crate::CheckConfig) set; indicates a
    /// soundness bug in the pipeline and fails property tests loudly.
    UnsoundElimination {
        /// Index requested.
        index: i64,
        /// Array length.
        len: usize,
        /// Call site.
        site: Span,
    },
    /// Integer division or modulus by zero.
    DivisionByZero(Span),
    /// An integer operation whose result leaves `i64` (SML's `Overflow`).
    Overflow(Span),
    /// No clause/arm matched the scrutinee.
    MatchFailure(Span),
    /// Unbound variable at run time (elaboration bug or raw-AST misuse).
    Unbound(String, Span),
    /// Dynamic type error (applying a non-function, bad primitive
    /// argument); unreachable for programs that passed phase 1.
    Type(String, Span),
    /// Negative size passed to `array`.
    NegativeArraySize(i64, Span),
    /// A user exception raised by `raise E` and not (yet) handled.
    Raised(String, Span),
    /// Fuel exhausted (runaway recursion guard in tests).
    OutOfFuel,
}

impl EvalError {
    /// The SML-basis exception name a `handle` arm can catch this error
    /// under, if any. `UnsoundElimination` and `OutOfFuel` are deliberately
    /// uncatchable (the first is a pipeline soundness bug, the second a
    /// test harness guard).
    pub fn exception_name(&self) -> Option<&str> {
        match self {
            EvalError::BoundsViolation { .. } | EvalError::TagViolation { .. } => Some("Subscript"),
            EvalError::DivisionByZero(_) => Some("Div"),
            EvalError::Overflow(_) => Some("Overflow"),
            EvalError::NegativeArraySize(_, _) => Some("Size"),
            EvalError::MatchFailure(_) => Some("Match"),
            EvalError::Raised(name, _) => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::BoundsViolation { index, len, site } => {
                write!(f, "array bound violation at {site}: index {index}, length {len}")
            }
            EvalError::TagViolation { index, site } => {
                write!(f, "list tag violation at {site}: index {index}")
            }
            EvalError::UnsoundElimination { index, len, site } => write!(
                f,
                "UNSOUND ELIMINATION at {site}: unchecked access with index {index}, length {len}"
            ),
            EvalError::DivisionByZero(site) => write!(f, "division by zero at {site}"),
            EvalError::Overflow(site) => {
                write!(f, "uncaught exception Overflow at {site}: integer result out of range")
            }
            EvalError::MatchFailure(site) => write!(f, "match failure at {site}"),
            EvalError::Unbound(name, site) => write!(f, "unbound variable `{name}` at {site}"),
            EvalError::Type(msg, site) => write!(f, "type error at {site}: {msg}"),
            EvalError::NegativeArraySize(n, site) => {
                write!(f, "negative array size {n} at {site}")
            }
            EvalError::Raised(name, site) => write!(f, "uncaught exception {name} at {site}"),
            EvalError::OutOfFuel => write!(f, "evaluation fuel exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let s = Span::new(1, 2);
        for e in [
            EvalError::BoundsViolation { index: 9, len: 3, site: s },
            EvalError::TagViolation { index: 9, site: s },
            EvalError::UnsoundElimination { index: 9, len: 3, site: s },
            EvalError::DivisionByZero(s),
            EvalError::Overflow(s),
            EvalError::MatchFailure(s),
            EvalError::Unbound("x".into(), s),
            EvalError::Type("bad".into(), s),
            EvalError::NegativeArraySize(-1, s),
            EvalError::Raised("E".into(), s),
            EvalError::OutOfFuel,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn exception_names() {
        let s = Span::new(1, 2);
        assert_eq!(
            EvalError::BoundsViolation { index: 1, len: 0, site: s }.exception_name(),
            Some("Subscript")
        );
        assert_eq!(EvalError::DivisionByZero(s).exception_name(), Some("Div"));
        assert_eq!(EvalError::Overflow(s).exception_name(), Some("Overflow"));
        assert_eq!(EvalError::Raised("E".into(), s).exception_name(), Some("E"));
        assert_eq!(
            EvalError::UnsoundElimination { index: 1, len: 0, site: s }.exception_name(),
            None,
            "soundness bugs are uncatchable"
        );
        assert_eq!(EvalError::OutOfFuel.exception_name(), None);
    }
}
