//! Popularity statistics: the Pareto long-tail set, activity/popularity
//! summaries, and the binned curve behind Figure 1 of the paper.

use crate::interactions::Interactions;
use crate::{ItemId, UserId};

/// The long-tail item set `L` of §II-A: with items sorted by decreasing
/// popularity, the items that generate the lower `tail_mass` fraction
/// (paper: 20%) of all train ratings.
#[derive(Debug, Clone)]
pub struct LongTail {
    mask: Vec<bool>,
    count: usize,
}

impl LongTail {
    /// The paper's tail mass: the tail generates 20% of all train ratings.
    pub const PARETO: f64 = 0.2;

    /// Compute `L` from a train set's item popularity
    /// ([`Interactions::item_popularity`]) using the Pareto principle (80/20
    /// rule); `tail_mass` is the fraction of total ratings generated by the
    /// tail ([`LongTail::PARETO`] in the paper).
    pub fn from_popularity(pop: &[u32], tail_mass: f64) -> LongTail {
        let total: u64 = pop.iter().map(|&p| p as u64).sum();
        let mut order: Vec<u32> = (0..pop.len() as u32).collect();
        // Decreasing popularity; ties broken by item id for determinism.
        order.sort_by_key(|&i| (std::cmp::Reverse(pop[i as usize]), i));
        let head_mass = ((1.0 - tail_mass) * total as f64).ceil() as u64;
        let mut mask = vec![false; pop.len()];
        let mut cum = 0u64;
        let mut count = 0usize;
        for &i in &order {
            if cum >= head_mass {
                // Everything after the head boundary is long tail — including
                // items with zero train ratings.
                mask[i as usize] = true;
                count += 1;
            }
            cum += pop[i as usize] as u64;
        }
        LongTail { mask, count }
    }

    /// Default Pareto 80/20 computation used throughout the paper.
    pub fn pareto(train: &Interactions) -> LongTail {
        LongTail::from_popularity(&train.item_popularity(), LongTail::PARETO)
    }

    /// Whether `i` is a long-tail item.
    #[inline]
    pub fn contains(&self, i: ItemId) -> bool {
        self.mask[i.idx()]
    }

    /// Number of long-tail items `|L|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no item is in the tail.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Long-tail percentage `L% = |L| / |I^R| × 100` over items that appear
    /// in train (Table II). Items with zero train ratings are excluded from
    /// the denominator, matching the paper's `I^R`. `pop` is the train
    /// set's [`Interactions::item_popularity`].
    pub fn percent_of(&self, pop: &[u32]) -> f64 {
        let rated: usize = pop.iter().filter(|&&p| p > 0).count();
        let tail_rated: usize = (0..pop.len())
            .filter(|&i| pop[i] > 0 && self.mask[i])
            .count();
        if rated == 0 {
            0.0
        } else {
            100.0 * tail_rated as f64 / rated as f64
        }
    }

    /// The boolean membership mask indexed by item id.
    #[inline]
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }
}

/// One point of the Figure 1 curve: users whose (normalized) activity falls
/// in the bin, and the mean over those users of the average popularity of
/// their rated items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityBin {
    /// Bin midpoint of normalized activity in `[0, 1]`.
    pub activity: f64,
    /// Mean over users in the bin of `ā_u = (1/|I_u|) Σ f_i^R`.
    pub mean_avg_popularity: f64,
    /// Number of users in the bin.
    pub users: usize,
}

/// Compute the Figure 1 series: bin users by normalized activity and average
/// the per-user mean popularity of rated items in each bin.
///
/// Empty bins are omitted. Users with no train ratings are skipped.
pub fn activity_popularity_curve(train: &Interactions, bins: usize) -> Vec<ActivityBin> {
    assert!(bins > 0, "need at least one bin");
    let pop = train.item_popularity();
    let activity = train.user_activity();
    let max_act = activity.iter().copied().max().unwrap_or(0) as f64;
    let min_act = activity
        .iter()
        .copied()
        .filter(|&a| a > 0)
        .min()
        .unwrap_or(0) as f64;
    let span = (max_act - min_act).max(1.0);
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0usize; bins];
    for u in 0..train.n_users() {
        let (items, _) = train.user_row(UserId(u));
        if items.is_empty() {
            continue;
        }
        let avg_pop: f64 =
            items.iter().map(|&i| pop[i as usize] as f64).sum::<f64>() / items.len() as f64;
        let norm = ((items.len() as f64 - min_act) / span).clamp(0.0, 1.0);
        let b = ((norm * bins as f64) as usize).min(bins - 1);
        sums[b] += avg_pop;
        counts[b] += 1;
    }
    (0..bins)
        .filter(|&b| counts[b] > 0)
        .map(|b| ActivityBin {
            activity: (b as f64 + 0.5) / bins as f64,
            mean_avg_popularity: sums[b] / counts[b] as f64,
            users: counts[b],
        })
        .collect()
}

/// Summary statistics for a dataset split, mirroring one row of Table II.
#[derive(Debug, Clone)]
pub struct TableTwoRow {
    /// Dataset name.
    pub name: String,
    /// Total ratings `|D|`.
    pub n_ratings: usize,
    /// `|U|`.
    pub n_users: u32,
    /// `|I|`.
    pub n_items: u32,
    /// Density percentage `d%`.
    pub density_percent: f64,
    /// Long-tail percentage `L%`.
    pub long_tail_percent: f64,
    /// Split ratio κ.
    pub kappa: f64,
    /// Minimum ratings per user τ.
    pub tau: u32,
}

impl TableTwoRow {
    /// Compute the Table II row for a dataset and its split.
    pub fn compute(
        name: &str,
        data: &crate::Dataset,
        split: &crate::TrainTest,
        tau: u32,
    ) -> TableTwoRow {
        let pop = split.train.item_popularity();
        let lt = LongTail::from_popularity(&pop, LongTail::PARETO);
        TableTwoRow {
            name: name.to_string(),
            n_ratings: data.n_ratings(),
            n_users: data.n_users(),
            n_items: data.n_items(),
            density_percent: data.density_percent(),
            long_tail_percent: lt.percent_of(&pop),
            kappa: split.kappa,
            tau,
        }
    }
}

/// Normalize a vector to `[0, 1]` with the paper's min–max rule
/// `x_i ← (x_i − min x) / (max x − min x)` (§II-A). Constant vectors map to
/// all-zeros.
///
/// The extrema are those of a serial `f64::min` / `f64::max` scan, bit for
/// bit: a NaN never wins (it maps to NaN; an all-NaN or empty vector has no
/// span and maps to zeros), and ±∞ compete like any value. They are taken
/// in 8 independent compare-select lanes folded at the end, so the scan
/// vectorises. Every non-zero extremum has one bit pattern whatever
/// the scan order; a zero extremum where both +0.0 and −0.0 occur is the
/// one case where order picks the sign, so it is taken by the serial scan.
pub fn min_max_normalize(xs: &mut [f64]) {
    let (mut lo, mut hi) = lane_min_max(xs);
    // A zero extremum, and the other zero's sign occurs too.
    let ambiguous = |z: f64| z == 0.0 && xs.iter().any(|&x| x == 0.0 && x.to_bits() != z.to_bits());
    if ambiguous(lo) || ambiguous(hi) {
        (lo, hi) = serial_min_max(xs);
    }
    let span = hi - lo;
    if !span.is_finite() || span <= 0.0 {
        xs.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    for x in xs.iter_mut() {
        *x = (*x - lo) / span;
    }
}

/// Lanes of [`lane_min_max`]: 8 `f64`s fill one AVX-512, two AVX or four
/// SSE2 registers.
const LANES: usize = 8;

/// `(min, max)` over `xs` in [`LANES`] compare-select lanes, `(+∞, −∞)`
/// when empty.
fn lane_min_max(xs: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(chunk) {
            (*l, *h) = (lower(*l, x), higher(*h, x));
        }
    }
    for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(chunks.remainder()) {
        (*l, *h) = (lower(*l, x), higher(*h, x));
    }
    let lo = lo.into_iter().fold(f64::INFINITY, lower);
    let hi = hi.into_iter().fold(f64::NEG_INFINITY, higher);
    (lo, hi)
}

/// `x` if it is below `acc`, else `acc`: a NaN compares false, so it never
/// replaces `acc`, and a tie keeps `acc`.
#[inline]
fn lower(acc: f64, x: f64) -> f64 {
    if x < acc {
        x
    } else {
        acc
    }
}

/// `x` if it is above `acc`, else `acc` (as [`lower`]).
#[inline]
fn higher(acc: f64, x: f64) -> f64 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// `(min, max)` over `xs` by a serial `f64::min` / `f64::max` scan: what
/// [`min_max_normalize`] reads when scan order picks a zero's sign.
fn serial_min_max(xs: &[f64]) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, RatingScale};
    use crate::{ItemId, UserId};
    use proptest::prelude::*;

    /// 10 ratings: item 0 gets 8 (head), items 1 and 2 get 1 each (tail).
    fn skewed() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..8u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 4.0).unwrap();
        b.push(UserId(1), ItemId(2), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn pareto_tail_contains_rare_items() {
        let m = skewed();
        let lt = LongTail::pareto(&m);
        assert!(!lt.contains(ItemId(0)), "head item must not be long-tail");
        assert!(lt.contains(ItemId(1)));
        assert!(lt.contains(ItemId(2)));
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn tail_percent_of_rated_items() {
        let m = skewed();
        let lt = LongTail::pareto(&m);
        // 2 tail items out of 3 rated items.
        assert!((lt.percent_of(&m.item_popularity()) - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unrated_items_are_long_tail() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..5u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        // item 3 exists in the id space but never rated
        b.push(UserId(0), ItemId(3), 4.0).unwrap();
        let m = b.build().unwrap().interactions();
        let lt = LongTail::pareto(&m);
        assert!(lt.contains(ItemId(1)), "zero-popularity item is tail");
        assert!(lt.contains(ItemId(2)));
    }

    #[test]
    fn tail_mass_zero_means_no_tail() {
        let m = skewed();
        let lt = LongTail::from_popularity(&m.item_popularity(), 0.0);
        assert!(lt.is_empty());
    }

    #[test]
    fn tail_mass_one_means_everything() {
        let m = skewed();
        let lt = LongTail::from_popularity(&m.item_popularity(), 1.0);
        assert_eq!(lt.len(), m.n_items() as usize);
    }

    #[test]
    fn curve_decreases_for_popularity_biased_data() {
        // Light users rate only the popular item; heavy users also reach tail
        // items — the curve must fall, as in Figure 1.
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..20u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        for u in 0..4u32 {
            for i in 1..=10u32 {
                b.push(UserId(u), ItemId(i), 3.0).unwrap();
            }
        }
        let m = b.build().unwrap().interactions();
        let curve = activity_popularity_curve(&m, 4);
        assert!(curve.len() >= 2);
        assert!(
            curve.first().unwrap().mean_avg_popularity > curve.last().unwrap().mean_avg_popularity
        );
    }

    #[test]
    fn curve_bin_population_sums_to_active_users() {
        let m = skewed();
        let curve = activity_popularity_curve(&m, 5);
        let total: usize = curve.iter().map(|b| b.users).sum();
        assert_eq!(total, 8); // 8 users have ratings
    }

    #[test]
    fn min_max_normalize_handles_constants() {
        let mut xs = vec![2.0, 2.0, 2.0];
        min_max_normalize(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 0.0]);
        let mut ys = vec![1.0, 3.0, 5.0];
        min_max_normalize(&mut ys);
        assert_eq!(ys, vec![0.0, 0.5, 1.0]);
    }

    /// The scan `min_max_normalize` had before its lanes: the oracle it
    /// must match bit for bit.
    fn serial_normalize(xs: &mut [f64]) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs.iter() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let span = hi - lo;
        if !span.is_finite() || span <= 0.0 {
            xs.iter_mut().for_each(|x| *x = 0.0);
            return;
        }
        for x in xs.iter_mut() {
            *x = (*x - lo) / span;
        }
    }

    /// One generated entry: NaN, ±∞ and ±0.0 each one draw in ten, else a
    /// finite value on either side of zero.
    fn entry((pick, raw): (u32, u32)) -> f64 {
        match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            _ => (raw as f64 - 500.0) / 7.0,
        }
    }

    proptest! {
        /// Every slice (lengths 0–40, so every remainder mod 8, at every
        /// lane offset) of a generated vector, and of the same vector held
        /// constant, normalises to the serial scan's bits. `zeros` in 0..2
        /// lifts every negative entry to −0.0, so zero minima of both signs,
        /// spread over the lanes, are drawn: the minimum's sign is what
        /// reaches the output, as the sign of a normalised −0.0.
        #[test]
        fn lanes_match_the_serial_scan_bit_for_bit(
            picks in collection::vec((0u32..10, 0u32..1000), 40..41),
            zeros in 0u32..4,
        ) {
            let mut xs: Vec<f64> = picks.into_iter().map(entry).collect();
            if zeros < 2 {
                xs.iter_mut().filter(|x| **x < 0.0).for_each(|x| *x = -0.0);
            }
            let constant = vec![xs[0]; xs.len()];
            for v in [&xs, &constant] {
                for (start, end) in (0..=v.len()).flat_map(|a| (a..=v.len()).map(move |b| (a, b))) {
                    let (mut got, mut want) = (v[start..end].to_vec(), v[start..end].to_vec());
                    min_max_normalize(&mut got);
                    serial_normalize(&mut want);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got), bits(&want), "{:?}", &v[start..end]);
                }
            }
        }
    }

    #[test]
    fn a_zero_extremum_of_both_signs_takes_the_serial_sign() {
        // Each zero is first in its lane, and the lanes fold in lane
        // order: without the serial scan the minimum would be lane 0's
        // zero, whichever the scan meets first, and the −0.0 entry would
        // normalise to the other zero.
        let (p, m) = (0.0, -0.0);
        for xs in [
            [1.0, m, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, p],
            [1.0, p, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, m],
            [f64::NAN, m, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, p],
        ] {
            let (mut got, mut want) = (xs.to_vec(), xs.to_vec());
            min_max_normalize(&mut got);
            serial_normalize(&mut want);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{xs:?}");
        }
        let mut nan_only = [f64::NAN; 9];
        min_max_normalize(&mut nan_only);
        assert_eq!(nan_only, [0.0; 9], "no span: a NaN never wins");
    }

    #[test]
    fn table_two_row_is_consistent() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            for i in 0..4u32 {
                b.push(UserId(u), ItemId(i), 3.0).unwrap();
            }
        }
        let d = b.build().unwrap();
        let s = d.split_per_user(0.5, 1).unwrap();
        let row = TableTwoRow::compute("t", &d, &s, 4);
        assert_eq!(row.n_ratings, 16);
        assert_eq!(row.n_users, 4);
        assert!((row.density_percent - 100.0).abs() < 1e-9);
    }
}
