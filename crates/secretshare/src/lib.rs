//! XOR-based secret sharing primitives used throughout the IncShrink reproduction.
//!
//! The paper (Section 3) works over the ring `Z_2^32` with an XOR-based
//! (2,2)-secret-sharing scheme:
//!
//! * `share(x)` samples `x1` uniformly at random and sets `x2 = x ⊕ x1`.
//! * `recover((x1, x2))` returns `x1 ⊕ x2`.
//!
//! This crate provides that scheme for `u32` words, and containers for
//! secret-shared tuples, arrays and columns that the MPC simulation layer
//! operates on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrays;
pub mod columns;
pub mod tuple;
pub mod value;

pub use arrays::SharedArrayPair;
pub use columns::SharedColumnsPair;
pub use tuple::SharedRecordPair;
pub use value::{PartyId, Share, SharePair};

/// Errors produced by secret-sharing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShareError {
    /// Two shares that were expected to describe the same logical object disagree
    /// on a structural property (length, arity, ...).
    ShapeMismatch {
        /// Human readable description of the mismatch.
        detail: String,
    },
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::ShapeMismatch { detail } => {
                write!(f, "share shape mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for ShareError {}

/// Result alias for fallible secret-sharing operations.
pub type Result<T> = std::result::Result<T, ShareError>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn error_display_is_informative() {
        let e = ShareError::ShapeMismatch {
            detail: "lengths 3 vs 4".into(),
        };
        assert!(e.to_string().contains("lengths 3 vs 4"));
    }

    #[test]
    fn end_to_end_share_recover_u32() {
        let mut rng = StdRng::seed_from_u64(7);
        for x in [0u32, 1, 42, u32::MAX, 0xDEAD_BEEF] {
            let pair = SharePair::share(x, &mut rng);
            assert_eq!(pair.recover(), x);
        }
    }
}
