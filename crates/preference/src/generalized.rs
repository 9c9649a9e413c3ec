//! The generalized long-tail preference `θ^G` (§II-C): a joint minimax
//! optimization over item importance weights `w` and user preferences `θ^G`.
//!
//! The objective (Eq. II.4) is
//!
//! ```text
//! min_w max_θ  Σ_i w_i ε_i − λ₁ Σ_i log w_i,
//! ε_i = Σ_{u ∈ U_i^R} [ 1 − (θ_ui − θ^G_u)² ]          (item mediocrity)
//! ```
//!
//! Alternating the two closed-form stationary conditions:
//!
//! * `w_i = λ₁ / ε_i`                          (Eq. II.5)
//! * `θ^G_u = Σ_i w_i θ_ui / Σ_i w_i`          (Eq. II.6)
//!
//! An item is *important* (large `w_i`) when its raters' preferences deviate
//! from their generalized preference — it is not "mediocre" to them — and a
//! user's `θ^G` is the importance-weighted average of their per-item values.
//! With all weights equal this degenerates to `θ^T`, which is also the
//! initialization.

use crate::tfidf::{theta_tfidf_of, ThetaUi};
use ganc_dataset::{Interactions, UserId};

/// Configuration of the alternating optimizer.
#[derive(Debug, Clone, Copy)]
pub struct GeneralizedConfig {
    /// Maximum alternating iterations.
    pub max_iters: usize,
}

impl GeneralizedConfig {
    /// Regularization weight λ₁ (the paper sets 1).
    pub const LAMBDA: f64 = 1.0;
    /// Convergence tolerance on `max_u |Δθ^G_u|`.
    pub const TOL: f64 = 1e-6;
}

impl Default for GeneralizedConfig {
    fn default() -> Self {
        GeneralizedConfig { max_iters: 50 }
    }
}

/// Diagnostics of one estimation run.
#[derive(Debug, Clone)]
pub struct GeneralizedResult {
    /// The estimated `θ^G`, one entry per user, in `[0, 1]`.
    pub theta: Vec<f64>,
    /// Final item importance weights `w` (λ₁/ε).
    pub weights: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Final `max_u |Δθ^G_u|`.
    pub final_delta: f64,
}

impl GeneralizedConfig {
    /// Estimate `θ^G` for every user of the train set (convenience wrapper
    /// returning only the preference vector).
    pub fn estimate(&self, train: &Interactions) -> Vec<f64> {
        self.run(train).theta
    }

    /// Full alternating optimization with diagnostics.
    pub fn run(&self, train: &Interactions) -> GeneralizedResult {
        let popularity = train.item_popularity();
        // θ_ui is fixed for the run: take it once, in row order, for the
        // initialization and both steps of every iteration.
        let values = ThetaUi::with_popularity(train, &popularity).row_values(train);
        let rows = || {
            let mut rest = &values[..];
            (0..train.n_users()).map(move |u| {
                let (items, _) = train.user_row(UserId(u));
                let (row, tail) = rest.split_at(items.len());
                rest = tail;
                (items, row)
            })
        };
        let n_items = train.n_items() as usize;
        // Initialize with θ^T (w ≡ 1 in Eq. II.6).
        let mut theta = theta_tfidf_of(train, &values);
        let mut weights = vec![1.0f64; n_items];
        let mut mediocrity = vec![0.0f64; n_items];
        let mut iterations = 0;
        let mut final_delta = f64::INFINITY;
        for it in 0..self.max_iters {
            iterations = it + 1;
            // --- w-step (Eq. II.5): w_i = λ / ε_i ---
            // One pass over the rows adds each item's raters in ascending
            // user order.
            mediocrity.fill(0.0);
            for (&t_u, (items, row)) in theta.iter().zip(rows()) {
                for (&i, &t_ui) in items.iter().zip(row) {
                    let d = t_ui - t_u;
                    mediocrity[i as usize] += 1.0 - d * d;
                }
            }
            for ((w, &eps), &f) in weights.iter_mut().zip(&mediocrity).zip(&popularity) {
                // θ_ui and θ^G both live in [0,1] so each term is ≥ 0; the
                // guard only protects against an all-extreme corner case.
                *w = if f == 0 {
                    1.0
                } else {
                    Self::LAMBDA / eps.max(1e-9)
                };
            }
            // --- θ-step (Eq. II.6): weighted average of θ_ui ---
            let mut delta = 0.0f64;
            for (t, (items, row)) in theta.iter_mut().zip(rows()) {
                if items.is_empty() {
                    continue;
                }
                let mut num = 0.0;
                let mut den = 0.0;
                for (&i, &t_ui) in items.iter().zip(row) {
                    let w = weights[i as usize];
                    num += w * t_ui;
                    den += w;
                }
                let new = if den > 0.0 { num / den } else { *t };
                delta = delta.max((new - *t).abs());
                *t = new;
            }
            final_delta = delta;
            if delta < Self::TOL {
                break;
            }
        }
        GeneralizedResult {
            theta,
            weights,
            iterations,
            final_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale};

    fn fixture() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..5u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 5.0).unwrap();
        b.push(UserId(1), ItemId(2), 5.0).unwrap();
        b.push(UserId(1), ItemId(3), 5.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn converges_and_stays_in_unit_interval() {
        let m = fixture();
        let res = GeneralizedConfig::default().run(&m);
        assert!(res.final_delta < 1e-6 || res.iterations == 50);
        assert!(res.theta.iter().all(|&t| (0.0..=1.0).contains(&t)));
    }

    #[test]
    fn tail_raters_get_higher_theta() {
        let m = fixture();
        let theta = GeneralizedConfig::default().estimate(&m);
        // users 0 and 1 rated rare items highly; users 2..4 only the head.
        assert!(theta[0] > theta[2]);
        assert!(theta[1] > theta[2]);
    }

    #[test]
    fn equal_weights_fixed_point_matches_tfidf_on_symmetric_data() {
        // Fully symmetric data: every user rates every item with the same
        // value. All θ_ui equal → θ^G = θ^T and stays there.
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..3u32 {
            for i in 0..3u32 {
                b.push(UserId(u), ItemId(i), 3.0).unwrap();
            }
        }
        let m = b.build().unwrap().interactions();
        let tfidf = crate::tfidf::theta_tfidf(&m);
        let res = GeneralizedConfig::default().run(&m);
        for (g, t) in res.theta.iter().zip(&tfidf) {
            assert!((g - t).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_are_positive_and_finite() {
        let m = fixture();
        let res = GeneralizedConfig::default().run(&m);
        assert!(res.weights.iter().all(|&w| w > 0.0 && w.is_finite()));
    }

    #[test]
    fn mediocre_items_get_lower_weight() {
        let m = fixture();
        let res = GeneralizedConfig::default().run(&m);
        // Item 0 is rated by everyone with θ_ui at the projection floor and
        // mediocrity ≈ Σ(1 − d²) over 5 users — many concordant raters make
        // it "mediocre"; rare items have a single rater and can reach at
        // most mediocrity 1 → weight ≥ λ.
        assert!(
            res.weights[1] > res.weights[0],
            "rare item weight {} vs head {}",
            res.weights[1],
            res.weights[0]
        );
    }

    #[test]
    fn distribution_is_less_skewed_than_theta_n_on_synthetic_data() {
        // Figure 2's qualitative claim: θ^G is more centered than θ^N.
        let data = DatasetProfile::small().generate(3);
        let split = data.split_per_user(0.5, 1).unwrap();
        let lt = ganc_dataset::stats::LongTail::pareto(&split.train);
        let tn = crate::simple::theta_normalized(&split.train, &lt);
        let tg = GeneralizedConfig::default().estimate(&split.train);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // θ^G has a larger mean (the paper observes it is normally
        // distributed with larger mean than the right-skewed θ^N).
        assert!(
            mean(&tg) > mean(&tn),
            "mean θG {} should exceed mean θN {}",
            mean(&tg),
            mean(&tn)
        );
    }

    #[test]
    fn respects_iteration_budget() {
        let m = fixture();
        let cfg = GeneralizedConfig { max_iters: 1 };
        let res = cfg.run(&m);
        assert_eq!(res.iterations, 1);
    }
}
