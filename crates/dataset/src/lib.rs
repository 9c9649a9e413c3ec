//! # ganc-dataset
//!
//! Data substrate for the GANC reproduction: rating triplets, compressed
//! sparse interaction matrices, per-user train/test splitting, popularity
//! statistics (including the Pareto 80/20 long-tail set of the paper), text
//! loaders for the MovieLens family of formats, and — because the original
//! evaluation datasets are not redistributable — synthetic generators
//! calibrated to the five datasets of Table II of the paper.
//!
//! The central types are:
//!
//! * [`Dataset`] — an owned collection of `(user, item, rating)` triplets
//!   with dense `u32` id spaces and a [`RatingScale`].
//! * [`Interactions`] — an immutable user-major CSR matrix over those
//!   triplets; this is what every algorithm consumes.
//! * [`TrainTest`] — the per-user ratio split (`κ` in the paper, §IV-A).
//! * [`stats::LongTail`] — the Pareto 80/20 long-tail item set `L` (§II-A).
//! * [`synth::DatasetProfile`] — calibrated synthetic generators standing in
//!   for ML-100K/1M/10M, MT-200K and Netflix.
//!
//! ```
//! use ganc_dataset::synth::DatasetProfile;
//!
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//! assert_eq!(split.train.n_users(), data.n_users());
//! ```

pub mod dataset;
pub mod error;
pub mod interactions;
pub mod io;
pub mod sampling;
pub mod split;
pub mod stats;
pub mod synth;

pub use dataset::{Dataset, DatasetBuilder, Rating, RatingScale};
pub use error::DataError;
pub use interactions::Interactions;
pub use split::TrainTest;

/// Dense user identifier: an index into `0..n_users`.
///
/// All per-user state in the workspace is stored in flat vectors indexed by
/// this id, so lookups never touch a hash map on a hot path.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct UserId(pub u32);

/// Dense item identifier: an index into `0..n_items`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ItemId(pub u32);

impl UserId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_thin_wrappers() {
        assert_eq!(std::mem::size_of::<UserId>(), 4);
        assert_eq!(std::mem::size_of::<ItemId>(), 4);
        assert_eq!(UserId(7).idx(), 7);
        assert_eq!(ItemId(9).idx(), 9);
    }

    #[test]
    fn ids_display() {
        assert_eq!(UserId(3).to_string(), "u3");
        assert_eq!(ItemId(4).to_string(), "i4");
    }
}
