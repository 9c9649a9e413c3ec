//! PRA — Personalized Ranking Adaptation (Jugovac, Jannach & Lerche, 2017;
//! §IV-A).
//!
//! PRA is the other *generic* re-ranking framework the paper compares
//! against. Its novelty-based variant:
//!
//! 1. estimates each user's **popularity tendency** with the
//!    mean-and-deviation heuristic over a sample `S_u` of at most 10 rated
//!    items — the target is the mean normalized popularity, with the sample
//!    standard deviation as the acceptable band;
//! 2. starts from the base model's top-N and an **exchangeable set** `X_u`
//!    of the next `|X_u| ∈ {10, 20}` ranked items;
//! 3. hill-climbs with the **optimal swap** strategy: at each step evaluate
//!    every (list item ↔ candidate) exchange and apply the one that brings
//!    the list's mean popularity closest to the target, for at most
//!    `maxSteps = 20` steps or until the list enters the tolerance band.
//!
//! Unlike GANC, PRA derives user tendencies from item popularity statistics
//! alone (no interest signal, no other users' preferences) — the contrast
//! §II of the paper draws.

use crate::Reranker;
use ganc_dataset::{Interactions, ItemId, UserId};

/// Configured PRA re-ranker.
#[derive(Debug, Clone)]
pub struct Pra {
    base_name: String,
    /// Exchangeable-set size `|X_u|`.
    exchangeable: usize,
    /// Maximum swap steps.
    max_steps: usize,
    /// Normalized item popularity (`f_i^R / max f^R`).
    pop_norm: Vec<f64>,
    /// Per-user popularity target (mean of sample).
    target: Vec<f64>,
    /// Per-user tolerance (std-dev of sample, floored).
    deviation: Vec<f64>,
}

impl Pra {
    /// Build with the paper's defaults (`S_u = min(|I_u|, 10)`,
    /// `maxSteps = 20`).
    pub fn new(train: &Interactions, base_name: &str, exchangeable: usize) -> Pra {
        let popularity = train.item_popularity();
        let max_pop = popularity.iter().copied().max().unwrap_or(1).max(1) as f64;
        let pop_norm: Vec<f64> = popularity.iter().map(|&p| p as f64 / max_pop).collect();
        let mut target = Vec::with_capacity(train.n_users() as usize);
        let mut deviation = Vec::with_capacity(train.n_users() as usize);
        for u in 0..train.n_users() {
            let (items, _) = train.user_row(UserId(u));
            if items.is_empty() {
                target.push(0.5);
                deviation.push(0.25);
                continue;
            }
            // Sample S_u: the paper caps at 10 items; without timestamps we
            // take the 10 *least popular* rated items — the strongest
            // novelty-tendency signal available from popularity statistics.
            let mut pops: Vec<f64> = items.iter().map(|&i| pop_norm[i as usize]).collect();
            pops.sort_by(f64::total_cmp);
            pops.truncate(10.min(pops.len()).max(1));
            let mean = pops.iter().sum::<f64>() / pops.len() as f64;
            let var = pops.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / pops.len() as f64;
            target.push(mean);
            deviation.push(var.sqrt().max(0.02));
        }
        Pra {
            base_name: base_name.to_string(),
            exchangeable,
            max_steps: 20,
            pop_norm,
            target,
            deviation,
        }
    }
}

impl Reranker for Pra {
    fn name(&self) -> String {
        format!("PRA({}, {})", self.base_name, self.exchangeable)
    }

    fn rerank(
        &self,
        user: UserId,
        base_scores: &[f64],
        candidates: &[u32],
        n: usize,
    ) -> Vec<ItemId> {
        if candidates.is_empty() || n == 0 {
            return Vec::new();
        }
        // Base ranking: prediction-descending.
        let mut ranked: Vec<u32> = candidates.to_vec();
        ranked.sort_by(|&a, &b| {
            base_scores[b as usize]
                .total_cmp(&base_scores[a as usize])
                .then(a.cmp(&b))
        });
        let list_len = n.min(ranked.len());
        let mut list: Vec<u32> = ranked[..list_len].to_vec();
        let mut pool: Vec<u32> = ranked[list_len..]
            .iter()
            .copied()
            .take(self.exchangeable)
            .collect();
        if pool.is_empty() {
            return list.into_iter().map(ItemId).collect();
        }
        let target = self.target[user.idx()];
        let dev = self.deviation[user.idx()];
        let mut mean_pop =
            list.iter().map(|&i| self.pop_norm[i as usize]).sum::<f64>() / list_len as f64;
        for _ in 0..self.max_steps {
            if (mean_pop - target).abs() <= dev {
                break; // inside the tendency band
            }
            // Optimal swap: best (list position, pool position) pair.
            let mut best: Option<(usize, usize, f64)> = None;
            let current_gap = (mean_pop - target).abs();
            for (lp, &li) in list.iter().enumerate() {
                for (pp, &pi) in pool.iter().enumerate() {
                    let new_mean = mean_pop
                        + (self.pop_norm[pi as usize] - self.pop_norm[li as usize])
                            / list_len as f64;
                    let gap = (new_mean - target).abs();
                    if gap + 1e-15 < best.map_or(current_gap, |(_, _, g)| g) {
                        best = Some((lp, pp, gap));
                    }
                }
            }
            match best {
                Some((lp, pp, _)) => {
                    std::mem::swap(&mut list[lp], &mut pool[pp]);
                    mean_pop = list.iter().map(|&i| self.pop_norm[i as usize]).sum::<f64>()
                        / list_len as f64;
                }
                None => break, // no improving swap
            }
        }
        list.into_iter().map(ItemId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    /// Popularities: item0=9, item1=6, item2=2, item3=1, item4=1.
    /// User 9 rates only the tail item 4.
    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..9u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        for u in 0..6u32 {
            b.push(UserId(u), ItemId(1), 4.0).unwrap();
        }
        for u in 0..2u32 {
            b.push(UserId(u), ItemId(2), 4.0).unwrap();
        }
        b.push(UserId(8), ItemId(3), 4.0).unwrap();
        b.push(UserId(9), ItemId(4), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn tail_user_gets_tail_swaps() {
        let m = train();
        let pra = Pra::new(&m, "X", 10);
        // user 9 rated only tail item 4 → target ≈ 1/9, tight deviation.
        // Base ranking favors popular items; PRA must swap tail items in.
        let scores = vec![5.0, 4.5, 4.0, 3.5, 3.4];
        let list = pra.rerank(UserId(9), &scores, &[0, 1, 2, 3], 2);
        let mean_pop_base = (1.0 + 6.0 / 9.0) / 2.0; // items 0,1
        let mean_pop_new: f64 = list.iter().map(|i| pra.pop_norm[i.idx()]).sum::<f64>() / 2.0;
        assert!(
            mean_pop_new < mean_pop_base,
            "PRA should lower mean popularity: {mean_pop_new} vs {mean_pop_base}"
        );
    }

    #[test]
    fn head_user_keeps_popular_list() {
        let m = train();
        let pra = Pra::new(&m, "X", 10);
        // user 3 rated only items {0, 1} (popular) → high target; the base
        // list is already popular → no (or popularity-preserving) swaps.
        let scores = vec![5.0, 4.5, 4.0, 3.5, 3.4];
        let list = pra.rerank(UserId(3), &scores, &[0, 1, 2, 3, 4], 2);
        assert_eq!(list, vec![ItemId(0), ItemId(1)]);
    }

    #[test]
    fn respects_exchangeable_budget() {
        let m = train();
        // With an empty exchangeable set the base list is returned as-is.
        let pra = Pra::new(&m, "X", 0);
        let scores = vec![5.0, 4.5, 4.0, 3.5, 3.4];
        let list = pra.rerank(UserId(9), &scores, &[0, 1, 2, 3, 4], 2);
        assert_eq!(list, vec![ItemId(0), ItemId(1)]);
    }

    #[test]
    fn list_is_duplicate_free_and_sized() {
        let m = train();
        let pra = Pra::new(&m, "X", 20);
        let scores = vec![5.0, 4.5, 4.0, 3.5, 3.4];
        let list = pra.rerank(UserId(9), &scores, &[0, 1, 2, 3, 4], 3);
        assert_eq!(list.len(), 3);
        let mut ids: Vec<u32> = list.iter().map(|i| i.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn name_is_paper_template() {
        let m = train();
        assert_eq!(Reranker::name(&Pra::new(&m, "RSVD", 10)), "PRA(RSVD, 10)");
        assert_eq!(Reranker::name(&Pra::new(&m, "RSVD", 20)), "PRA(RSVD, 20)");
    }

    #[test]
    fn target_reflects_rated_popularity() {
        let m = train();
        let pra = Pra::new(&m, "X", 10);
        // user 3 rated popular items only; user 9 rated a tail item.
        assert!(pra.target[3] > pra.target[9]);
    }

    #[test]
    fn empty_candidates_yield_empty() {
        let m = train();
        let pra = Pra::new(&m, "X", 10);
        assert!(pra.rerank(UserId(0), &[1.0; 5], &[], 3).is_empty());
    }
}
