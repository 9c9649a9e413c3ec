//! 5D resource-allocation re-ranking (Ho, Chiang & Hsu, WSDM 2014; §IV-A).
//!
//! Reconstructed from the paper's summary: Ho et al.'s implementation is
//! not openly redistributable, so this stands in for it — same criteria,
//! aggregation and variant grid, our own resource-allocation pass:
//!
//! 1. **Resource allocation.** Items seed resource proportional to their
//!    per-rater rating mass; a heat-conduction pass (degree-normalized on
//!    both the user and the item side of the bipartite graph) spreads it.
//!    The surviving per-item mass is the item's community "worth": tail
//!    items beloved by low-activity users collect the most — the
//!    long-tail-advocacy behaviour Ho et al. engineer with their
//!    allocation phases.
//! 2. **5D scoring.** Each user–item pair gets five criterion scores:
//!    *accuracy* (normalized base prediction), *balance* (closeness of the
//!    item's popularity to the user's historical mean popularity),
//!    *coverage* (inverse popularity), *quality* (damped mean rating), and
//!    *quantity* (long-tail membership), each weighted `q = 1`.
//! 3. **Aggregation.** Either a direct weighted sum, or **RR**
//!    (rank-by-rankings): per-criterion ranks among the candidates are
//!    summed — a Borda-style aggregation that is scale-free.
//! 4. **A** (accuracy filtering): restrict candidates to the top `k = 3·N`
//!    by base prediction before scoring.
//!
//! The variant grid matches the paper: `5D(RSVD)` (plain sum, no filter)
//! and `5D(RSVD, A, RR)`.

use crate::Reranker;
use ganc_dataset::stats::LongTail;
use ganc_dataset::{Interactions, ItemId, UserId};

/// Configured 5D re-ranker.
#[derive(Debug, Clone)]
pub struct FiveD {
    base_name: String,
    accuracy_filter: bool,
    rank_by_rankings: bool,
    /// Per-item resource mass from the two-phase allocation, min–max
    /// normalized.
    resource: Vec<f64>,
    /// Train popularity per item.
    popularity: Vec<u32>,
    /// Damped item means normalized to [0, 1].
    quality: Vec<f64>,
    /// Long-tail membership.
    long_tail: Vec<bool>,
}

impl FiveD {
    /// Build the plain variant `5D(base)`.
    pub fn new(train: &Interactions, base_name: &str) -> FiveD {
        FiveD::with_options(train, base_name, false, false)
    }

    /// Build with explicit A (accuracy filter) and RR (rank-by-rankings)
    /// options.
    pub fn with_options(
        train: &Interactions,
        base_name: &str,
        accuracy_filter: bool,
        rank_by_rankings: bool,
    ) -> FiveD {
        let n_items = train.n_items() as usize;
        let popularity = train.item_popularity();
        // Each item's rating mass, summed over its raters in ascending user
        // order by one pass over the rows.
        let mut rating_mass = vec![-0.0f64; n_items];
        for (_, i, v) in train.iter() {
            rating_mass[i.idx()] += v as f64;
        }
        // Two-phase resource allocation with heat-conduction (HeatS-style)
        // degree normalization on both sides of the bipartite graph: every
        // item starts with resource proportional to its rating mass *per
        // rater*; users average the per-exposure resource of their items;
        // items average their raters' heat. Double degree-normalization is
        // the classic long-tail-promoting kernel — tail items loved by
        // low-activity users end up with the highest worth.
        let initial: Vec<f64> = rating_mass
            .iter()
            .zip(&popularity)
            .map(|(&mass, &f)| {
                if f == 0 {
                    return 0.0;
                }
                let mean = mass / f as f64;
                mean / f as f64
            })
            .collect();
        let mut heat = vec![-0.0f64; n_items];
        for u in 0..train.n_users() {
            let (items, _) = train.user_row(UserId(u));
            if items.is_empty() {
                continue;
            }
            let s: f64 = items.iter().map(|&i| initial[i as usize]).sum();
            let user_heat = s / items.len() as f64;
            for &i in items {
                heat[i as usize] += user_heat;
            }
        }
        let mut second: Vec<f64> = heat
            .iter()
            .zip(&popularity)
            .map(|(&h, &f)| if f == 0 { 0.0 } else { h / f as f64 })
            .collect();
        ganc_dataset::stats::min_max_normalize(&mut second);
        // Quality: damped mean rating, normalized.
        let mu = train.global_mean();
        let mut quality: Vec<f64> = rating_mass
            .iter()
            .zip(&popularity)
            .map(|(&mass, &f)| (mass + 3.0 * mu) / (f as f64 + 3.0))
            .collect();
        ganc_dataset::stats::min_max_normalize(&mut quality);
        let lt = LongTail::from_popularity(&popularity, LongTail::PARETO);
        FiveD {
            base_name: base_name.to_string(),
            accuracy_filter,
            rank_by_rankings,
            resource: second,
            popularity,
            quality,
            long_tail: lt.mask().to_vec(),
        }
    }

    /// The five criterion scores for a candidate, each in `[0, 1]`:
    /// accuracy, balance (allocation worth), coverage, quality, quantity.
    fn criteria(&self, _user: UserId, item: u32, acc_norm: f64) -> [f64; 5] {
        let coverage = 1.0 / (self.popularity[item as usize] as f64 + 1.0).sqrt();
        let quality = self.quality[item as usize];
        let quantity = if self.long_tail[item as usize] {
            1.0
        } else {
            0.0
        };
        // "Balance" carries Ho et al.'s relative-preference mass: the
        // per-exposure resource worth of the item.
        [
            acc_norm,
            self.resource[item as usize],
            coverage,
            quality,
            quantity,
        ]
    }
}

impl Reranker for FiveD {
    fn name(&self) -> String {
        match (self.accuracy_filter, self.rank_by_rankings) {
            (false, false) => format!("5D({})", self.base_name),
            (true, true) => format!("5D({}, A, RR)", self.base_name),
            (true, false) => format!("5D({}, A)", self.base_name),
            (false, true) => format!("5D({}, RR)", self.base_name),
        }
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
        // Optional accuracy filter: keep the top 3·N by base prediction.
        let mut pool: Vec<u32> = candidates.to_vec();
        if self.accuracy_filter {
            let k = (3 * n).min(pool.len());
            pool.sort_by(|&a, &b| {
                base_scores[b as usize]
                    .total_cmp(&base_scores[a as usize])
                    .then(a.cmp(&b))
            });
            pool.truncate(k);
        }
        // Normalize base predictions over the pool for the accuracy
        // criterion.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &pool {
            lo = lo.min(base_scores[i as usize]);
            hi = hi.max(base_scores[i as usize]);
        }
        let span = (hi - lo).max(1e-12);
        let crits: Vec<[f64; 5]> = pool
            .iter()
            .map(|&i| {
                let acc = (base_scores[i as usize] - lo) / span;
                self.criteria(user, i, acc)
            })
            .collect();
        let agg: Vec<f64> = if self.rank_by_rankings {
            // Borda: sum of per-criterion ranks (higher value → better
            // rank → larger Borda score).
            let m = pool.len();
            let mut borda = vec![0.0f64; m];
            let mut order: Vec<usize> = (0..m).collect();
            #[allow(clippy::needless_range_loop)] // criterion indexes a fixed-size per-item array
            for criterion in 0..5usize {
                order.sort_by(|&a, &b| crits[a][criterion].total_cmp(&crits[b][criterion]));
                for (rank, &idx) in order.iter().enumerate() {
                    borda[idx] += rank as f64;
                }
            }
            borda
        } else {
            crits.iter().map(|c| c.iter().sum()).collect()
        };
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| agg[b].total_cmp(&agg[a]).then(pool[a].cmp(&pool[b])));
        order
            .into_iter()
            .take(n)
            .map(|idx| ItemId(pool[idx]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{bits, column_sum, columns, holed};
    use ganc_dataset::stats::min_max_normalize;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    #[test]
    fn per_item_criteria_match_an_item_major_reference_bit_for_bit() {
        for seed in 1..=4 {
            let train = holed(seed);
            let cols = columns(&train);
            let initial: Vec<f64> = cols
                .iter()
                .map(|c| {
                    if c.is_empty() {
                        return 0.0;
                    }
                    let mean = column_sum(c) / c.len() as f64;
                    mean / c.len() as f64
                })
                .collect();
            let user_heat: Vec<f64> = (0..train.n_users())
                .map(|u| {
                    let (items, _) = train.user_row(UserId(u));
                    if items.is_empty() {
                        return 0.0;
                    }
                    let s: f64 = items.iter().map(|&i| initial[i as usize]).sum();
                    s / items.len() as f64
                })
                .collect();
            let mut resource: Vec<f64> = cols
                .iter()
                .map(|c| {
                    if c.is_empty() {
                        return 0.0;
                    }
                    let s: f64 = c.iter().map(|&(u, _)| user_heat[u as usize]).sum();
                    s / c.len() as f64
                })
                .collect();
            min_max_normalize(&mut resource);
            let mu = train.global_mean();
            let mut quality: Vec<f64> = cols
                .iter()
                .map(|c| (column_sum(c) + 3.0 * mu) / (c.len() as f64 + 3.0))
                .collect();
            min_max_normalize(&mut quality);
            let popularity: Vec<u32> = cols.iter().map(|c| c.len() as u32).collect();
            assert!(popularity.contains(&0), "seed {seed}: no empty column");

            let fd = FiveD::new(&train, "X");
            assert_eq!(bits(&fd.resource), bits(&resource), "seed {seed}");
            assert_eq!(bits(&fd.quality), bits(&quality), "seed {seed}");
            assert_eq!(fd.popularity, popularity, "seed {seed}");
            let tail = LongTail::from_popularity(&popularity, LongTail::PARETO);
            assert_eq!(fd.long_tail, tail.mask(), "seed {seed}");
        }
    }

    /// Strong head item 0 (12 raters), tail items 1..=3.
    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..12u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 5.0).unwrap();
        b.push(UserId(1), ItemId(2), 3.0).unwrap();
        b.push(UserId(2), ItemId(3), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn promotes_long_tail_over_head() {
        let fd = FiveD::new(&train(), "X");
        // Base model loves the head item.
        let scores = vec![5.0, 3.5, 3.5, 3.5];
        let list = fd.rerank(UserId(5), &scores, &[0, 1, 2, 3], 2);
        // The tail criteria (coverage + quantity) must outvote accuracy.
        assert!(
            list.iter().all(|i| i.0 != 0),
            "head item survived 5D re-ranking: {list:?}"
        );
    }

    #[test]
    fn accuracy_filter_limits_pool() {
        let fd = FiveD::with_options(&train(), "X", true, false);
        // With N=1 the filter keeps the top 3 by prediction; item 3 (lowest
        // prediction) can never appear.
        let scores = vec![5.0, 4.0, 3.9, 0.1];
        let list = fd.rerank(UserId(5), &scores, &[0, 1, 2, 3], 1);
        assert_ne!(list[0], ItemId(3));
    }

    #[test]
    fn rank_by_rankings_is_scale_free() {
        // Multiplying one criterion's scale must not change RR output;
        // verify by comparing against a run where base scores are scaled.
        let fd = FiveD::with_options(&train(), "X", false, true);
        let a = fd.rerank(UserId(5), &[5.0, 3.5, 3.4, 3.3], &[0, 1, 2, 3], 4);
        let b = fd.rerank(UserId(5), &[50.0, 35.0, 34.0, 33.0], &[0, 1, 2, 3], 4);
        assert_eq!(a, b);
    }

    #[test]
    fn names_follow_paper_templates() {
        let t = train();
        assert_eq!(Reranker::name(&FiveD::new(&t, "RSVD")), "5D(RSVD)");
        assert_eq!(
            Reranker::name(&FiveD::with_options(&t, "RSVD", true, true)),
            "5D(RSVD, A, RR)"
        );
    }

    #[test]
    fn empty_candidates_yield_empty_list() {
        let fd = FiveD::new(&train(), "X");
        assert!(fd.rerank(UserId(0), &[1.0; 4], &[], 5).is_empty());
        assert!(fd.rerank(UserId(0), &[1.0; 4], &[1, 2], 0).is_empty());
    }

    #[test]
    fn resource_mass_is_normalized() {
        let fd = FiveD::new(&train(), "X");
        assert!(fd.resource.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn worth_prefers_concentrated_devotion() {
        let fd = FiveD::new(&train(), "X");
        // Item 1 is a tail item rated 5.0 by its single rater; the head
        // item spreads its mass over 12 raters → lower per-exposure worth.
        let head = fd.criteria(UserId(5), 0, 0.5)[1];
        let tail = fd.criteria(UserId(5), 1, 0.5)[1];
        assert!(tail > head, "tail worth {tail} vs head worth {head}");
    }
}
