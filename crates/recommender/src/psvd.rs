//! PureSVD (Cremonesi et al. [1]): truncated SVD of the **zero-imputed**
//! rating matrix, computed with the randomized solver of `ganc-linalg`
//! directly on the sparse CSR — the `sparsesvd` stand-in of §IV-A.
//!
//! Missing ratings are treated as zeros, so the model learns *association*
//! strength rather than rating value; it is known for strong ranking
//! accuracy and (at high rank) better novelty than rating-prediction MF.
//! The paper's two configurations are PSVD10 (`k = 10`) and PSVD100
//! (`k = 100`).

use crate::Recommender;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_linalg::dmat::{dot_column, dot_columns};
use ganc_linalg::{randomized_svd, DMat, LinOp, SvdConfig};

/// Sparse rating matrix viewed as a linear operator (no densification).
struct CsrOp<'a> {
    m: &'a Interactions,
}

impl LinOp for CsrOp<'_> {
    fn rows(&self) -> usize {
        self.m.n_users() as usize
    }

    fn cols(&self) -> usize {
        self.m.n_items() as usize
    }

    fn apply(&self, x: &DMat) -> DMat {
        let k = x.cols();
        let mut out = DMat::zeros(self.rows(), k);
        for u in 0..self.m.n_users() {
            let (items, vals) = self.m.user_row(UserId(u));
            let row = out.row_mut(u as usize);
            for (&i, &r) in items.iter().zip(vals) {
                let xr = x.row(i as usize);
                for (o, &xv) in row.iter_mut().zip(xr) {
                    *o += r as f64 * xv;
                }
            }
        }
        out
    }

    fn apply_t(&self, x: &DMat) -> DMat {
        let k = x.cols();
        let mut out = DMat::zeros(self.cols(), k);
        for u in 0..self.m.n_users() {
            let (items, vals) = self.m.user_row(UserId(u));
            let xr = x.row(u as usize);
            for (&i, &r) in items.iter().zip(vals) {
                let orow = out.row_mut(i as usize);
                for (o, &xv) in orow.iter_mut().zip(xr) {
                    *o += r as f64 * xv;
                }
            }
        }
        out
    }
}

/// A fitted PureSVD model: `score(u, i) = (U_k Σ_k)_u · (V_k)_i`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Psvd {
    /// `n_users × k` — left singular vectors scaled by Σ, one row per user.
    user_factors: DMat,
    /// `k × n_items` — right singular vectors stored transposed, one column
    /// per item, the layout [`dot_columns`] scores across.
    item_factors: DMat,
}

impl Psvd {
    /// Fit a rank-`k` PureSVD on the train interactions.
    pub fn train(train: &Interactions, rank: usize, seed: u64) -> Psvd {
        let op = CsrOp { m: train };
        let mut cfg = SvdConfig::with_rank(rank);
        cfg.seed = seed;
        let svd = randomized_svd(&op, cfg);
        let mut user_factors = svd.u;
        user_factors.scale_cols(&svd.s);
        Psvd {
            user_factors,
            item_factors: svd.v.transpose(),
        }
    }

    /// The truncation rank actually used.
    pub fn rank(&self) -> usize {
        self.item_factors.rows()
    }

    /// Association score between a user and an item: the entry
    /// [`Recommender::score_items`] writes for `i`, bit for bit.
    #[inline]
    pub fn score(&self, u: UserId, i: ItemId) -> f64 {
        dot_column(self.user_factors.row(u.idx()), &self.item_factors, i.idx())
    }

    /// `(n_users, n_items)` this model scores, or which factor matrix
    /// disagrees with the other on `k`.
    pub fn shape(&self) -> Result<(usize, usize), &'static str> {
        if self.user_factors.cols() != self.item_factors.rows() {
            return Err("PSVD user factors not n_users × k");
        }
        Ok((self.user_factors.rows(), self.item_factors.cols()))
    }
}

impl Recommender for Psvd {
    fn name(&self) -> String {
        format!("PSVD{}", self.rank())
    }

    fn score_items(&self, user: UserId, out: &mut [f64]) {
        dot_columns(self.user_factors.row(user.idx()), &self.item_factors, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topn::{generate_topn_lists, train_item_mask, unseen_train_candidates};
    use ganc_dataset::synth::DatasetProfile;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    #[test]
    fn reconstructs_block_structure() {
        // Two disjoint user/item communities: PSVD must score in-community
        // items above cross-community ones.
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..8u32 {
            for i in 0..8u32 {
                let same = (u < 4) == (i < 4);
                if same && (u + i) % 2 == 0 {
                    b.push(UserId(u), ItemId(i), 5.0).unwrap();
                }
            }
        }
        let m = b.build().unwrap().interactions();
        let model = Psvd::train(&m, 2, 1);
        // user 0 (community A): unseen item 2 (A) vs item 5 (B)
        assert!(
            model.score(UserId(0), ItemId(2)) > model.score(UserId(0), ItemId(5)),
            "in-community association should dominate"
        );
    }

    #[test]
    fn rank_is_clamped_to_matrix_size() {
        let data = DatasetProfile::tiny().generate(1);
        let m = data.interactions();
        let model = Psvd::train(&m, 1000, 1);
        assert!(model.rank() <= m.n_users().min(m.n_items()) as usize);
    }

    #[test]
    fn name_includes_rank() {
        let data = DatasetProfile::tiny().generate(2);
        let m = data.interactions();
        let model = Psvd::train(&m, 10, 1);
        assert_eq!(Recommender::name(&model), "PSVD10");
    }

    #[test]
    fn linop_products_agree_with_dense() {
        let data = DatasetProfile::tiny().generate(3);
        let m = data.interactions();
        let op = CsrOp { m: &m };
        let dense = DMat::from_fn(m.n_users() as usize, m.n_items() as usize, |u, i| {
            m.get(UserId(u as u32), ItemId(i as u32)).unwrap_or(0.0) as f64
        });
        let x = DMat::from_fn(m.n_items() as usize, 3, |r, c| ((r + c) as f64).sin());
        let y = DMat::from_fn(m.n_users() as usize, 3, |r, c| ((r * c) as f64).cos());
        assert!(op.apply(&x).max_abs_diff(&dense.matmul(&x)) < 1e-9);
        assert!(op.apply_t(&y).max_abs_diff(&dense.t_matmul(&y)) < 1e-9);
    }

    #[test]
    fn score_items_matches_score_bitwise() {
        let data = DatasetProfile::tiny().generate(6);
        let m = data.interactions();
        let model = Psvd::train(&m, 7, 3);
        let mut buf = vec![0.0; m.n_items() as usize];
        for u in [0, m.n_users() / 2, m.n_users() - 1] {
            model.score_items(UserId(u), &mut buf);
            for (i, &s) in buf.iter().enumerate() {
                let want = model.score(UserId(u), ItemId(i as u32));
                assert_eq!(s.to_bits(), want.to_bits(), "user {u} item {i}");
            }
        }
    }

    #[test]
    fn produces_valid_topn_lists() {
        let data = DatasetProfile::tiny().generate(4);
        let split = data.split_per_user(0.5, 1).unwrap();
        let model = Psvd::train(&split.train, 5, 2);
        let lists = generate_topn_lists(&model, &split.train, 5, 2);
        let mask = train_item_mask(&split.train);
        for (u, list) in lists.iter().enumerate() {
            let uid = UserId(u as u32);
            let cands: Vec<u32> = unseen_train_candidates(&split.train, &mask, uid).collect();
            assert_eq!(list.len(), 5.min(cands.len()));
        }
    }
}
