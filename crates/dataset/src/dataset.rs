//! Owned rating triplets with dense id spaces and a rating scale.

use crate::error::DataError;
use crate::interactions::Interactions;
use crate::split::TrainTest;
use crate::{ItemId, UserId};

/// A single observed `(user, item, rating)` interaction, `r_ui` in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// The rating user `u`.
    pub user: UserId,
    /// The rated item `i`.
    pub item: ItemId,
    /// The rating value `r_ui` on the dataset's [`RatingScale`].
    pub value: f32,
}

/// The discrete scale ratings are drawn from.
///
/// MovieLens 100K/1M use `{1,...,5}`, ML-10M has half-star increments,
/// MovieTweetings uses `{0,...,10}` (mapped to `[1,5]` before use, following
/// the paper's preprocessing of MT-200K).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RatingScale {
    /// Smallest expressible rating.
    pub min: f32,
    /// Largest expressible rating.
    pub max: f32,
    /// Step between adjacent rating values (e.g. `1.0` or `0.5`).
    pub step: f32,
}

impl RatingScale {
    /// The standard 1–5 star scale with whole-star increments.
    pub const fn stars_1_5() -> Self {
        RatingScale {
            min: 1.0,
            max: 5.0,
            step: 1.0,
        }
    }

    /// The 0.5–5 scale with half-star increments used by ML-10M.
    pub const fn half_stars() -> Self {
        RatingScale {
            min: 0.5,
            max: 5.0,
            step: 0.5,
        }
    }

    /// The 0–10 integer scale of MovieTweetings.
    pub const fn zero_to_ten() -> Self {
        RatingScale {
            min: 0.0,
            max: 10.0,
            step: 1.0,
        }
    }

    /// Whether `value` lies inside the scale (steps are not enforced; real
    /// datasets contain occasional off-step values).
    #[inline]
    pub fn contains(&self, value: f32) -> bool {
        value >= self.min && value <= self.max
    }

    /// Snap an arbitrary real value onto the nearest expressible rating.
    pub fn quantize(&self, raw: f64) -> f32 {
        let clamped = raw.clamp(self.min as f64, self.max as f64);
        let steps = ((clamped - self.min as f64) / self.step as f64).round();
        (self.min as f64 + steps * self.step as f64) as f32
    }

    /// Linearly map a value on this scale to the `[1, 5]` interval used by
    /// every algorithm in the workspace (the paper maps MT-200K this way,
    /// following Hernandez-Lobato et al.).
    #[inline]
    pub fn to_one_five(&self, value: f32) -> f32 {
        if (self.max - self.min).abs() < f32::EPSILON {
            return 3.0;
        }
        1.0 + 4.0 * (value - self.min) / (self.max - self.min)
    }
}

impl Default for RatingScale {
    fn default() -> Self {
        RatingScale::stars_1_5()
    }
}

/// An owned, validated rating dataset `D = { r_ui }` (§II-A).
///
/// Users and items are dense `u32` ids; construction deduplicates repeated
/// `(user, item)` pairs keeping the last observation, mirroring how rating
/// logs are usually compacted.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    n_users: u32,
    n_items: u32,
    scale: RatingScale,
    ratings: Vec<Rating>,
}

impl Dataset {
    /// Dataset display name (e.g. `"ml-1m-sim"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users `|U|`.
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of items `|I|`.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of observed ratings `|D|`.
    #[inline]
    pub fn n_ratings(&self) -> usize {
        self.ratings.len()
    }

    /// The scale ratings were recorded on.
    #[inline]
    pub fn scale(&self) -> RatingScale {
        self.scale
    }

    /// All ratings, sorted by `(user, item)`.
    #[inline]
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Density `d% = |D| / (|U|·|I|) × 100` (Table II).
    pub fn density_percent(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            return 0.0;
        }
        100.0 * self.ratings.len() as f64 / (self.n_users as f64 * self.n_items as f64)
    }

    /// Build the CSR interaction views over the full dataset.
    pub fn interactions(&self) -> Interactions {
        Interactions::from_ratings(self.n_users, self.n_items, &self.ratings)
    }

    /// Split into train/test keeping a `κ` fraction of each user's ratings in
    /// the train set (§IV-A). Every user keeps at least one train rating.
    pub fn split_per_user(&self, kappa: f64, seed: u64) -> Result<TrainTest, DataError> {
        TrainTest::split_per_user(self, kappa, seed)
    }

    /// Re-map every rating onto `[1, 5]`, returning a new dataset on the
    /// 1–5 scale. Used for MT-200K-style data (paper §IV-A).
    pub fn mapped_to_one_five(&self) -> Dataset {
        let scale = self.scale;
        let ratings = self
            .ratings
            .iter()
            .map(|r| Rating {
                value: scale.to_one_five(r.value),
                ..*r
            })
            .collect();
        Dataset {
            name: self.name.clone(),
            n_users: self.n_users,
            n_items: self.n_items,
            scale: RatingScale {
                min: 1.0,
                max: 5.0,
                step: scale.step * 4.0 / (scale.max - scale.min).max(f32::EPSILON),
            },
            ratings,
        }
    }
}

/// Incremental builder for [`Dataset`], used by loaders and generators.
#[derive(Debug)]
pub struct DatasetBuilder {
    name: String,
    scale: RatingScale,
    ratings: Vec<Rating>,
    max_user: Option<u32>,
    max_item: Option<u32>,
    validate: bool,
}

impl DatasetBuilder {
    /// Start a builder for a dataset on the given scale.
    pub fn new(name: impl Into<String>, scale: RatingScale) -> Self {
        DatasetBuilder {
            name: name.into(),
            scale,
            ratings: Vec::new(),
            max_user: None,
            max_item: None,
            validate: true,
        }
    }

    /// Disable scale validation (loaders of known-noisy files may prefer to
    /// clamp instead of fail).
    pub fn without_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Pre-allocate for an expected number of ratings.
    pub fn with_capacity(mut self, n: usize) -> Self {
        self.ratings.reserve(n);
        self
    }

    /// Append one rating.
    pub fn push(&mut self, user: UserId, item: ItemId, value: f32) -> Result<(), DataError> {
        if self.validate && !self.scale.contains(value) {
            return Err(DataError::RatingOutOfScale {
                value,
                min: self.scale.min,
                max: self.scale.max,
            });
        }
        let value = value.clamp(self.scale.min, self.scale.max);
        self.max_user = Some(self.max_user.map_or(user.0, |m| m.max(user.0)));
        self.max_item = Some(self.max_item.map_or(item.0, |m| m.max(item.0)));
        self.ratings.push(Rating { user, item, value });
        Ok(())
    }

    /// Number of ratings pushed so far (before deduplication).
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether no ratings have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Finalize: sort by `(user, item)`, deduplicate keeping the last
    /// observation, and freeze id-space sizes.
    pub fn build(self) -> Result<Dataset, DataError> {
        let DatasetBuilder {
            name,
            scale,
            mut ratings,
            max_user,
            max_item,
            ..
        } = self;
        if ratings.is_empty() {
            return Err(DataError::Empty);
        }
        // Stable sort keeps insertion order among duplicates so that "last
        // observation wins" is well defined after the dedup pass below.
        ratings.sort_by_key(|r| (r.user.0, r.item.0));
        let mut deduped: Vec<Rating> = Vec::with_capacity(ratings.len());
        for r in ratings {
            match deduped.last_mut() {
                Some(last) if last.user == r.user && last.item == r.item => *last = r,
                _ => deduped.push(r),
            }
        }
        Ok(Dataset {
            name,
            n_users: max_user.unwrap_or(0) + 1,
            n_items: max_item.unwrap_or(0) + 1,
            scale,
            ratings: deduped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(triples: &[(u32, u32, f32)]) -> Dataset {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for &(u, i, r) in triples {
            b.push(UserId(u), ItemId(i), r).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_sorts_and_sizes() {
        let d = build(&[(1, 2, 3.0), (0, 1, 4.0), (1, 0, 5.0)]);
        assert_eq!(d.n_users(), 2);
        assert_eq!(d.n_items(), 3);
        assert_eq!(d.n_ratings(), 3);
        let users: Vec<u32> = d.ratings().iter().map(|r| r.user.0).collect();
        assert_eq!(users, vec![0, 1, 1]);
    }

    #[test]
    fn builder_dedups_keeping_last() {
        let d = build(&[(0, 0, 1.0), (0, 0, 5.0)]);
        assert_eq!(d.n_ratings(), 1);
        assert_eq!(d.ratings()[0].value, 5.0);
    }

    #[test]
    fn builder_rejects_out_of_scale() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        let err = b.push(UserId(0), ItemId(0), 9.0).unwrap_err();
        assert!(matches!(err, DataError::RatingOutOfScale { .. }));
    }

    #[test]
    fn builder_without_validation_clamps() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5()).without_validation();
        b.push(UserId(0), ItemId(0), 9.0).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.ratings()[0].value, 5.0);
    }

    #[test]
    fn empty_build_fails() {
        let b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        assert!(matches!(b.build(), Err(DataError::Empty)));
    }

    #[test]
    fn density_matches_hand_computation() {
        let d = build(&[(0, 0, 3.0), (0, 1, 3.0), (1, 0, 3.0)]);
        // 3 ratings / (2 users * 2 items) = 75%
        assert!((d.density_percent() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn quantize_snaps_to_steps() {
        let s = RatingScale::half_stars();
        assert_eq!(s.quantize(3.26), 3.5);
        assert_eq!(s.quantize(-2.0), 0.5);
        assert_eq!(s.quantize(9.0), 5.0);
        let whole = RatingScale::stars_1_5();
        assert_eq!(whole.quantize(2.5), 3.0); // round-half-up at midpoints
        assert_eq!(whole.quantize(2.49), 2.0);
    }

    #[test]
    fn map_to_one_five_preserves_order() {
        let s = RatingScale::zero_to_ten();
        assert_eq!(s.to_one_five(0.0), 1.0);
        assert_eq!(s.to_one_five(10.0), 5.0);
        assert!((s.to_one_five(5.0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn mapped_dataset_is_on_one_five() {
        let mut b = DatasetBuilder::new("mt", RatingScale::zero_to_ten());
        b.push(UserId(0), ItemId(0), 0.0).unwrap();
        b.push(UserId(0), ItemId(1), 10.0).unwrap();
        let d = b.build().unwrap().mapped_to_one_five();
        assert_eq!(d.ratings()[0].value, 1.0);
        assert_eq!(d.ratings()[1].value, 5.0);
        assert_eq!(d.scale().min, 1.0);
        assert_eq!(d.scale().max, 5.0);
    }
}
