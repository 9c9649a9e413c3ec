//! RankMF: pairwise ranking matrix factorization (BPR-style SGD).
//!
//! Stand-in for CoFiRank/CofiR100 (§IV-A): the evaluation needs a
//! *ranking-loss* latent-factor baseline, distinct from the squared-error
//! RSVD. RankMF maximizes `σ(p_u·q_i − p_u·q_j)` over sampled pairs of a
//! rated item `i` and an unrated item `j` (Rendle et al.'s BPR objective) —
//! like CofiR100 it optimizes list order directly rather than rating values,
//! which is the property the paper's comparison uses it for; CoFiRank's
//! bundle-method solver is not reimplemented here.

use crate::Recommender;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_linalg::dmat::{dot_column, dot_columns};
use ganc_linalg::DMat;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Hyper-parameters for RankMF training.
#[derive(Debug, Clone, Copy)]
pub struct RankMfConfig {
    /// Latent dimensionality (100 mirrors CofiR100).
    pub factors: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization on factors.
    pub reg: f64,
    /// Passes over the positive interactions (one negative sampled per
    /// positive per pass).
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RankMfConfig {
    fn default() -> Self {
        RankMfConfig {
            factors: 100,
            learning_rate: 0.05,
            reg: 0.01,
            epochs: 10,
            seed: 0x000B_A5ED,
        }
    }
}

/// A trained pairwise ranking MF model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankMf {
    /// `n_users × factors` — `p_u`, one row per user.
    p: DMat,
    /// `factors × n_items` — `q_i` stored transposed, one column per item,
    /// the layout [`dot_columns`] scores across.
    q: DMat,
}

impl RankMf {
    /// Train with BPR sampling: for every `(u, i)` positive, draw an
    /// unrated `j` uniformly and take one gradient step on the pair.
    pub fn train(train: &Interactions, cfg: RankMfConfig) -> RankMf {
        let n_users = train.n_users() as usize;
        let n_items = train.n_items() as usize;
        let k = cfg.factors.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let scale = 0.1 / (k as f64).sqrt();
        let mut p: Vec<f64> = (0..n_users * k)
            .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let mut q: Vec<f64> = (0..n_items * k)
            .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let positives: Vec<(u32, u32)> = train.iter().map(|(u, i, _)| (u.0, i.0)).collect();
        let mut order: Vec<u32> = (0..positives.len() as u32).collect();
        let lr = cfg.learning_rate;
        let reg = cfg.reg;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &t in &order {
                let (u, i) = positives[t as usize];
                // Negative sampling with a bounded retry loop; users who
                // rated (almost) everything just skip the pair.
                let mut j = rng.random_range(0..n_items as u32);
                let mut tries = 0;
                while train.contains(UserId(u), ItemId(j)) {
                    j = rng.random_range(0..n_items as u32);
                    tries += 1;
                    if tries > 32 {
                        break;
                    }
                }
                if tries > 32 {
                    continue;
                }
                let (u, i, j) = (u as usize, i as usize, j as usize);
                let pu = u * k;
                let qi = i * k;
                let qj = j * k;
                let mut x = 0.0;
                for f in 0..k {
                    x += p[pu + f] * (q[qi + f] - q[qj + f]);
                }
                // dσ/dx of the BPR log-likelihood: σ(-x)
                let g = 1.0 / (1.0 + x.exp());
                for f in 0..k {
                    let puf = p[pu + f];
                    let qif = q[qi + f];
                    let qjf = q[qj + f];
                    p[pu + f] += lr * (g * (qif - qjf) - reg * puf);
                    q[qi + f] += lr * (g * puf - reg * qif);
                    q[qj + f] += lr * (-g * puf - reg * qjf);
                }
            }
        }
        // SGD touches one item's factors at a time, so training keeps them
        // row-major (`n_items × k`) and the fitted model stores the transpose.
        RankMf {
            p: DMat::from_vec(n_users, k, p),
            q: DMat::from_vec(n_items, k, q).transpose(),
        }
    }

    /// Ranking score (not a rating): the entry
    /// [`Recommender::score_items`] writes for `i`, bit for bit.
    #[inline]
    pub fn score(&self, u: UserId, i: ItemId) -> f64 {
        dot_column(self.p.row(u.idx()), &self.q, i.idx())
    }

    /// Latent dimensionality.
    pub fn factors(&self) -> usize {
        self.q.rows()
    }

    /// `(n_users, n_items)` this model scores, or which factor matrix
    /// disagrees with the other on `k`.
    pub fn shape(&self) -> Result<(usize, usize), &'static str> {
        if self.p.cols() != self.q.rows() {
            return Err("RankMF user factors not n_users × k");
        }
        Ok((self.p.rows(), self.q.cols()))
    }
}

impl Recommender for RankMf {
    fn name(&self) -> String {
        format!("RankMF{}", self.factors())
    }

    fn score_items(&self, user: UserId, out: &mut [f64]) {
        dot_columns(self.p.row(user.idx()), &self.q, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    fn cfg() -> RankMfConfig {
        RankMfConfig {
            factors: 8,
            learning_rate: 0.1,
            reg: 0.01,
            epochs: 60,
            seed: 5,
        }
    }

    /// Block data: community A users rate items 0..4, community B rate 5..9.
    fn blocks() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..6u32 {
            for i in 0..10u32 {
                let same = (u < 3) == (i < 5);
                if same && (u + i) % 2 == 0 {
                    b.push(UserId(u), ItemId(i), 5.0).unwrap();
                }
            }
        }
        b.build().unwrap().interactions()
    }

    #[test]
    fn ranks_community_items_above_cross_community() {
        let m = blocks();
        let model = RankMf::train(&m, cfg());
        // user 0 ∈ A; unseen A item 1 vs B item 5.
        assert!(
            model.score(UserId(0), ItemId(1)) > model.score(UserId(0), ItemId(5)),
            "{} !> {}",
            model.score(UserId(0), ItemId(1)),
            model.score(UserId(0), ItemId(5))
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let m = blocks();
        let a = RankMf::train(&m, cfg());
        let b = RankMf::train(&m, cfg());
        assert_eq!(a.score(UserId(0), ItemId(0)), b.score(UserId(0), ItemId(0)));
    }

    #[test]
    fn name_reports_factors() {
        let m = blocks();
        let model = RankMf::train(&m, cfg());
        assert_eq!(Recommender::name(&model), "RankMF8");
    }

    #[test]
    fn score_items_matches_point_scores() {
        let m = blocks();
        let model = RankMf::train(&m, cfg());
        let mut buf = vec![0.0; m.n_items() as usize];
        model.score_items(UserId(2), &mut buf);
        for (i, &s) in buf.iter().enumerate() {
            let want = model.score(UserId(2), ItemId(i as u32));
            assert_eq!(s.to_bits(), want.to_bits(), "item {i}");
        }
    }

    #[test]
    fn survives_user_who_rated_everything() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for i in 0..4u32 {
            b.push(UserId(0), ItemId(i), 5.0).unwrap();
        }
        b.push(UserId(1), ItemId(0), 4.0).unwrap();
        let m = b.build().unwrap().interactions();
        // User 0 rated the whole catalog: negative sampling must not hang.
        let model = RankMf::train(&m, cfg());
        let _ = model.score(UserId(0), ItemId(0));
    }
}
