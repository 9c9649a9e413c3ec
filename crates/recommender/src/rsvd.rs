//! Regularized SVD (RSVD): L2-regularized matrix factorization trained with
//! stochastic gradient descent — the LIBMF stand-in of §IV-A / Appendix A.
//!
//! The model is `r̂_ui = μ + b_u + b_i + p_u·q_i`, minimizing squared error
//! with L2 regularization on all learned parameters. Biases can be disabled
//! for the pure-MF variant; non-negative clamping gives RSVDN (which the
//! paper found indistinguishable from RSVD, Appendix A).

use crate::Recommender;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_linalg::dmat::{dot_column, dot_columns};
use ganc_linalg::DMat;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Hyper-parameters of an RSVD training run (the Table V grid axes).
#[derive(Debug, Clone, Copy)]
pub struct RsvdConfig {
    /// Latent dimensionality `g`.
    pub factors: usize,
    /// SGD learning rate `η`.
    pub learning_rate: f64,
    /// L2 regularization coefficient `λ`.
    pub reg: f64,
    /// Number of SGD passes over the train ratings.
    pub epochs: usize,
    /// Learn the `μ + b_u + b_i` bias terms.
    pub use_biases: bool,
    /// Clamp factors at zero after each update (RSVDN).
    pub non_negative: bool,
    /// RNG seed (initialization + shuffling).
    pub seed: u64,
}

impl Default for RsvdConfig {
    fn default() -> Self {
        RsvdConfig {
            factors: 100,
            learning_rate: 0.01,
            reg: 0.05,
            epochs: 20,
            use_biases: true,
            non_negative: false,
            seed: 0x5E5D_0001,
        }
    }
}

/// A trained RSVD model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rsvd {
    global_mean: f64,
    /// `b_u`, one per user.
    user_bias: Vec<f64>,
    /// `b_i`, one per item.
    item_bias: Vec<f64>,
    /// `n_users × factors` — `p_u`, one row per user.
    p: DMat,
    /// `factors × n_items` — `q_i` stored transposed, one column per item,
    /// the layout [`dot_columns`] scores across.
    q: DMat,
    name: String,
}

impl Rsvd {
    /// Train on the given interactions.
    pub fn train(train: &Interactions, cfg: RsvdConfig) -> Rsvd {
        Self::train_with_validation(train, None, cfg).0
    }

    /// Train, optionally tracking RMSE on a held-out set after each epoch
    /// (used by the Table V hyper-parameter study).
    pub fn train_with_validation(
        train: &Interactions,
        validation: Option<&Interactions>,
        cfg: RsvdConfig,
    ) -> (Rsvd, Vec<f64>) {
        let n_users = train.n_users() as usize;
        let n_items = train.n_items() as usize;
        let k = cfg.factors.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Standard small-random init, scaled so the initial dot product has
        // magnitude well below one rating unit.
        let scale = 0.1 / (k as f64).sqrt();
        let init = |rng: &mut StdRng, len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    if cfg.non_negative {
                        // RSVDN starts inside the feasible orthant so items
                        // untouched by SGD (e.g. test-only items) stay valid.
                        rng.random::<f64>() * scale
                    } else {
                        (rng.random::<f64>() - 0.5) * 2.0 * scale
                    }
                })
                .collect()
        };
        // SGD reads and writes one item's factors at a time, so training
        // keeps them row-major (`n_items × k`) and the fitted model stores
        // their transpose.
        let global_mean = if cfg.use_biases {
            train.global_mean()
        } else {
            0.0
        };
        let mut user_bias = vec![0.0; n_users];
        let mut item_bias = vec![0.0; n_items];
        let mut p = init(&mut rng, n_users * k);
        let mut q = init(&mut rng, n_items * k);
        let fitted = |user_bias: Vec<f64>, item_bias: Vec<f64>, p: Vec<f64>, q: &[f64]| Rsvd {
            global_mean,
            user_bias,
            item_bias,
            p: DMat::from_vec(n_users, k, p),
            q: DMat::from_fn(k, n_items, |f, i| q[i * k + f]),
            name: format!("RSVD{}", if cfg.non_negative { "N" } else { "" }),
        };
        // Materialize triplets once; shuffle an index array per epoch.
        let triplets: Vec<(u32, u32, f32)> = train.iter().map(|(u, i, r)| (u.0, i.0, r)).collect();
        let mut order: Vec<u32> = (0..triplets.len() as u32).collect();
        let lr = cfg.learning_rate;
        let reg = cfg.reg;
        let mut curve = Vec::new();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &t in &order {
                let (u, i, r) = triplets[t as usize];
                let (u, i) = (u as usize, i as usize);
                let pu = u * k;
                let qi = i * k;
                let mut dot = 0.0;
                for f in 0..k {
                    dot += p[pu + f] * q[qi + f];
                }
                let pred = global_mean + user_bias[u] + item_bias[i] + dot;
                let err = r as f64 - pred;
                if cfg.use_biases {
                    user_bias[u] += lr * (err - reg * user_bias[u]);
                    item_bias[i] += lr * (err - reg * item_bias[i]);
                }
                for f in 0..k {
                    let pf = p[pu + f];
                    let qf = q[qi + f];
                    let mut new_p = pf + lr * (err * qf - reg * pf);
                    let mut new_q = qf + lr * (err * pf - reg * qf);
                    if cfg.non_negative {
                        new_p = new_p.max(0.0);
                        new_q = new_q.max(0.0);
                    }
                    p[pu + f] = new_p;
                    q[qi + f] = new_q;
                }
            }
            if let Some(val) = validation {
                let snapshot = fitted(user_bias.clone(), item_bias.clone(), p.clone(), &q);
                curve.push(snapshot.rmse(val));
            }
        }
        (fitted(user_bias, item_bias, p, &q), curve)
    }

    /// Predicted rating `r̂_ui` (unclamped): the entry
    /// [`Recommender::score_items`] writes for `i`, bit for bit.
    #[inline]
    pub fn predict(&self, u: UserId, i: ItemId) -> f64 {
        let dot = dot_column(self.p.row(u.idx()), &self.q, i.idx());
        self.global_mean + self.user_bias[u.idx()] + self.item_bias[i.idx()] + dot
    }

    /// RMSE over a held-out set.
    pub fn rmse(&self, held_out: &Interactions) -> f64 {
        ganc_metrics_free_rmse(held_out, self)
    }

    /// Latent dimensionality.
    pub fn factors(&self) -> usize {
        self.q.rows()
    }

    /// `(n_users, n_items)` this model scores, or which part disagrees
    /// with the others: factors not `n_users × k` / `k × n_items`, or a
    /// bias vector not one per user / item.
    pub fn shape(&self) -> Result<(usize, usize), &'static str> {
        let (n_users, n_items) = (self.p.rows(), self.q.cols());
        if self.p.cols() != self.q.rows() {
            return Err("RSVD user factors not n_users × k");
        }
        if self.user_bias.len() != n_users {
            return Err("RSVD user_bias not one per user");
        }
        if self.item_bias.len() != n_items {
            return Err("RSVD item_bias not one per item");
        }
        Ok((n_users, n_items))
    }
}

/// Local RMSE (this crate cannot depend on `ganc-metrics`, which sits next
/// to it in the dependency DAG).
fn ganc_metrics_free_rmse(held_out: &Interactions, model: &Rsvd) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (u, i, r) in held_out.iter() {
        let e = model.predict(u, i) - r as f64;
        sum += e * e;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

impl Recommender for Rsvd {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn score_items(&self, user: UserId, out: &mut [f64]) {
        dot_columns(self.p.row(user.idx()), &self.q, out);
        let base = self.global_mean + self.user_bias[user.idx()];
        for (o, &b) in out.iter_mut().zip(&self.item_bias) {
            // `(base + b_i) + dot`, as `predict` adds it (`+` commutes).
            *o += base + b;
        }
    }

    fn predicts_ratings(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::synth::DatasetProfile;

    fn quick_cfg() -> RsvdConfig {
        RsvdConfig {
            factors: 8,
            learning_rate: 0.02,
            reg: 0.05,
            epochs: 15,
            use_biases: true,
            non_negative: false,
            seed: 42,
        }
    }

    #[test]
    fn learns_structure_beats_global_mean() {
        let data = DatasetProfile::small().generate(1);
        let split = data.split_per_user(0.5, 2).unwrap();
        let model = Rsvd::train(&split.train, quick_cfg());
        let mu = split.train.global_mean();
        let baseline = {
            let mut sum = 0.0;
            let mut n = 0;
            for (_, _, r) in split.test.iter() {
                sum += (r as f64 - mu) * (r as f64 - mu);
                n += 1;
            }
            (sum / n as f64).sqrt()
        };
        let rmse = model.rmse(&split.test);
        assert!(
            rmse < baseline,
            "rmse {rmse:.4} should beat mean-predictor {baseline:.4}"
        );
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let data = DatasetProfile::tiny().generate(1);
        let split = data.split_per_user(0.5, 2).unwrap();
        let a = Rsvd::train(&split.train, quick_cfg());
        let b = Rsvd::train(&split.train, quick_cfg());
        assert_eq!(
            a.predict(UserId(0), ItemId(0)),
            b.predict(UserId(0), ItemId(0))
        );
    }

    #[test]
    fn validation_curve_decreases_overall() {
        let data = DatasetProfile::small().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let (sub, val) = split.validation_split(0.8, 3).unwrap();
        let (_, curve) = Rsvd::train_with_validation(&sub, Some(&val), quick_cfg());
        assert_eq!(curve.len(), quick_cfg().epochs);
        let best = curve.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            best < curve[0],
            "validation RMSE should improve at some epoch: {curve:?}"
        );
    }

    #[test]
    fn nonnegative_variant_clamps_factors() {
        let data = DatasetProfile::tiny().generate(3);
        let split = data.split_per_user(0.5, 2).unwrap();
        let cfg = RsvdConfig {
            non_negative: true,
            ..quick_cfg()
        };
        let model = Rsvd::train(&split.train, cfg);
        assert!(model.p.data().iter().all(|&x| x >= 0.0));
        assert!(model.q.data().iter().all(|&x| x >= 0.0));
        assert_eq!(Recommender::name(&model), "RSVDN");
    }

    #[test]
    fn score_items_matches_predict() {
        let data = DatasetProfile::tiny().generate(7);
        let split = data.split_per_user(0.5, 2).unwrap();
        let model = Rsvd::train(&split.train, quick_cfg());
        let mut buf = vec![0.0; split.train.n_items() as usize];
        model.score_items(UserId(3), &mut buf);
        for (i, &s) in buf.iter().enumerate() {
            let want = model.predict(UserId(3), ItemId(i as u32));
            assert_eq!(s.to_bits(), want.to_bits(), "item {i}");
        }
    }

    #[test]
    fn biasless_model_centers_at_zero() {
        let data = DatasetProfile::tiny().generate(9);
        let split = data.split_per_user(0.5, 2).unwrap();
        let cfg = RsvdConfig {
            use_biases: false,
            epochs: 1,
            ..quick_cfg()
        };
        let model = Rsvd::train(&split.train, cfg);
        assert_eq!(model.global_mean, 0.0);
        assert!(model.user_bias.iter().all(|&b| b == 0.0));
    }
}
