//! # ganc-recommender
//!
//! The base ("accuracy") recommenders of the paper (§III-A, §IV-A), built
//! from scratch:
//!
//! | model | paper role | module |
//! |-------|-----------|--------|
//! | [`pop::MostPopular`] | non-personalized accuracy champion | `pop` |
//! | [`random::RandomRec`] | coverage champion / control | `random` |
//! | [`rsvd::Rsvd`] | Regularized SVD — SGD matrix factorization (LIBMF stand-in) | `rsvd` |
//! | [`psvd::Psvd`] | PureSVD via randomized truncated SVD (PSVD10/PSVD100) | `psvd` |
//! | [`rankmf::RankMf`] | pairwise ranking MF (CoFiRank/CofiR100 stand-in) | `rankmf` |
//!
//! Every model implements [`Recommender`]: it fills a dense per-item score
//! buffer for one user, and the [`topn`] module turns score buffers into
//! top-N lists under a candidate mask (protocol handling lives in
//! `ganc-metrics`; parallel list generation lives here).

pub mod pop;
pub mod psvd;
pub mod random;
pub mod rankmf;
pub mod rsvd;
pub mod topn;

use ganc_dataset::UserId;

/// A top-N scoring model: fills one score per item for a given user.
///
/// Scores are *unnormalized* — only their per-user ordering matters for
/// ranking; GANC's accuracy adapter normalizes them to `[0, 1]` per user
/// (§III-A).
pub trait Recommender: Send + Sync {
    /// Human-readable model name used in experiment tables (e.g.
    /// `"PSVD100"`).
    fn name(&self) -> String;

    /// Write a preference score for every item into `out`
    /// (`out.len() == n_items`). Higher means better.
    fn score_items(&self, user: UserId, out: &mut [f64]);

    /// Whether scores are comparable to ratings on the dataset scale
    /// (true for rating-prediction models like RSVD; re-rankers like RBT
    /// need this to apply rating thresholds).
    fn predicts_ratings(&self) -> bool {
        false
    }

    /// Whether [`Recommender::score_items`] ignores the user (Pop).
    /// Serving engines exploit this to compute the per-user normalized
    /// accuracy vector once per model version instead of once per request.
    fn scores_are_user_independent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl Recommender for Fake {
        fn name(&self) -> String {
            "fake".into()
        }
        fn score_items(&self, _u: UserId, out: &mut [f64]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = k as f64;
            }
        }
    }

    #[test]
    fn trait_object_is_usable() {
        let rec: Box<dyn Recommender> = Box::new(Fake);
        let mut buf = vec![0.0; 3];
        rec.score_items(UserId(0), &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 2.0]);
        assert!(!rec.predicts_ratings());
    }
}
