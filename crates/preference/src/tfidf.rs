//! The TFIDF-based preference measure (Eq. II.2) and the per-user-item
//! values `θ_ui` it is built from.
//!
//! `θ_ui = r_ui · log(|U| / |U_i^R|)` treats the rating as a term frequency
//! and the inverse item popularity as an IDF: a high rating on an unpopular
//! item is strong evidence of long-tail appetite. Before any further use the
//! paper projects all `θ_ui` onto `[0, 1]` (§II-C), which this module does
//! globally with the min–max rule.

use ganc_dataset::{Interactions, ItemId, UserId};

/// Precomputed, projected `θ_ui` machinery shared by `θ^T` and `θ^G`.
#[derive(Debug, Clone)]
pub struct ThetaUi {
    /// `log(|U| / |U_i^R|)` per item (0 for unrated items).
    log_factor: Vec<f64>,
    /// Global min of raw `θ_ui` (projection offset).
    min: f64,
    /// Global `max − min` of raw `θ_ui` (projection scale; ≥ tiny).
    span: f64,
}

impl ThetaUi {
    /// Precompute projection constants from a train set.
    pub fn from_train(train: &Interactions) -> ThetaUi {
        ThetaUi::with_popularity(train, &train.item_popularity())
    }

    /// [`ThetaUi::from_train`] over the train set's already counted
    /// [`Interactions::item_popularity`].
    pub(crate) fn with_popularity(train: &Interactions, popularity: &[u32]) -> ThetaUi {
        let n_users = train.n_users() as f64;
        let log_factor: Vec<f64> = popularity
            .iter()
            .map(|&pop| {
                if pop == 0 {
                    0.0
                } else {
                    (n_users / pop as f64).ln()
                }
            })
            .collect();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (_, i, r) in train.iter() {
            let raw = r as f64 * log_factor[i.idx()];
            min = min.min(raw);
            max = max.max(raw);
        }
        if !min.is_finite() {
            // Empty train set: degenerate projection.
            min = 0.0;
            max = 1.0;
        }
        ThetaUi {
            log_factor,
            min,
            span: (max - min).max(1e-12),
        }
    }

    /// The projected value `θ_ui ∈ [0, 1]` for one rating.
    #[inline]
    pub fn value(&self, item: ItemId, rating: f32) -> f64 {
        let raw = rating as f64 * self.log_factor[item.idx()];
        ((raw - self.min) / self.span).clamp(0.0, 1.0)
    }

    /// `θ_ui` for every rating of the train set, in row order (user-major,
    /// each row sorted by item): what `θ^T` and every `θ^G` step read.
    pub(crate) fn row_values(&self, train: &Interactions) -> Vec<f64> {
        train.iter().map(|(_, i, r)| self.value(i, r)).collect()
    }
}

/// TFIDF-based measure `θ^T_u = (1/|I_u^R|) Σ_i θ_ui` (Eq. II.2–II.3), on
/// projected `θ_ui` so the result lies in `[0, 1]`. Users with no train
/// ratings get 0.
pub fn theta_tfidf(train: &Interactions) -> Vec<f64> {
    let tui = ThetaUi::from_train(train);
    theta_tfidf_of(train, &tui.row_values(train))
}

/// [`theta_tfidf`] over the train set's `θ_ui`, given in row order
/// ([`ThetaUi::row_values`]).
pub(crate) fn theta_tfidf_of(train: &Interactions, values: &[f64]) -> Vec<f64> {
    let mut rest = values;
    (0..train.n_users())
        .map(|u| {
            let (row, tail) = rest.split_at(train.user_degree(UserId(u)));
            rest = tail;
            if row.is_empty() {
                return 0.0;
            }
            row.iter().sum::<f64>() / row.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    /// 4 users. item 0: rated by everyone (popular). item 1: one rater.
    fn fixture() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 5.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn theta_ui_rewards_rare_high_rated_items() {
        let m = fixture();
        let tui = ThetaUi::from_train(&m);
        // item 0 is rated by all users → log(4/4)=0 → θui = projected min.
        let head = tui.value(ItemId(0), 4.0);
        let tail = tui.value(ItemId(1), 5.0);
        assert!(tail > head, "tail {tail} must exceed head {head}");
        assert_eq!(head, 0.0);
        assert_eq!(tail, 1.0); // extremes of the projection
    }

    #[test]
    fn theta_ui_scales_with_rating() {
        let m = fixture();
        let tui = ThetaUi::from_train(&m);
        assert!(tui.value(ItemId(1), 5.0) > tui.value(ItemId(1), 2.0));
    }

    #[test]
    fn tfidf_user_ordering() {
        let m = fixture();
        let t = theta_tfidf(&m);
        // user 0 rated the rare item highly; users 1..3 only the popular one.
        assert!(t[0] > t[1]);
        assert_eq!(t[1], t[2]);
        assert!(t.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn tfidf_of_uniform_popularity_is_constant() {
        // Every item equally popular → all log factors equal → all θT equal.
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..3u32 {
            for i in 0..3u32 {
                b.push(UserId(u), ItemId(i), 3.0).unwrap();
            }
        }
        let m = b.build().unwrap().interactions();
        let t = theta_tfidf(&m);
        assert!((t[0] - t[1]).abs() < 1e-12);
        assert!((t[1] - t[2]).abs() < 1e-12);
    }

    #[test]
    fn empty_user_rows_get_zero() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(2), ItemId(0), 4.0).unwrap();
        let m = b.build().unwrap().interactions();
        let t = theta_tfidf(&m);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 0.0);
    }
}
