//! Immutable user-major CSR interaction matrices.
//!
//! Every algorithm in the workspace reads interaction data through this type:
//! `user_row(u)` gives `I_u^R` (the items rated by `u`), materialized once at
//! construction so hot loops never search or hash. The per-item facts the
//! paper reads off `U_i^R` (§II-A) — popularity `f_i^R`, mean ratings, and
//! the per-item sums of θ^G's w-step and the 5D baseline — are reductions,
//! each taken in one pass over the rows, which visits every item's raters in
//! ascending user order.

use crate::dataset::Rating;
use crate::{ItemId, UserId};

/// A compressed-sparse row matrix: `ptr` has `n_rows + 1` offsets into the
/// parallel `idx`/`val` arrays. Decoded only inside [`Interactions`], which
/// knows the dimensions to check it against ([`Csr::check`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Csr {
    ptr: Box<[u32]>,
    idx: Box<[u32]>,
    val: Box<[f32]>,
}

impl Csr {
    /// Counting-sort `(row, col, value)` triplets into `n_rows` rows, then
    /// sort each row by column id. Reads `triplets` twice (count, place).
    fn from_triplets<I>(n_rows: u32, triplets: I) -> Csr
    where
        I: Iterator<Item = (u32, u32, f32)> + Clone,
    {
        let mut ptr = vec![0u32; n_rows as usize + 1];
        for (r, _, _) in triplets.clone() {
            ptr[r as usize + 1] += 1;
        }
        for k in 1..ptr.len() {
            ptr[k] += ptr[k - 1];
        }
        let nnz = ptr[n_rows as usize] as usize;
        let mut idx = vec![0u32; nnz].into_boxed_slice();
        let mut val = vec![0f32; nnz].into_boxed_slice();
        let mut cursor = ptr.clone();
        for (r, c, v) in triplets {
            let at = cursor[r as usize] as usize;
            idx[at] = c;
            val[at] = v;
            cursor[r as usize] += 1;
        }
        // Sort each row by column id for binary-searchable lookups. Rows are
        // typically short, so insertion locality dominates; a per-row sort of
        // index/value pairs is cheap and happens once.
        let mut csr = Csr {
            ptr: ptr.into_boxed_slice(),
            idx,
            val,
        };
        csr.sort_rows();
        csr
    }

    fn sort_rows(&mut self) {
        let n_rows = self.ptr.len() - 1;
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..n_rows {
            let lo = self.ptr[r] as usize;
            let hi = self.ptr[r + 1] as usize;
            if hi - lo <= 1 {
                continue;
            }
            let row_sorted = self.idx[lo..hi].windows(2).all(|w| w[0] <= w[1]);
            if row_sorted {
                continue;
            }
            scratch.clear();
            scratch.extend(
                self.idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.val[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for (k, &(c, v)) in scratch.iter().enumerate() {
                self.idx[lo + k] = c;
                self.val[lo + k] = v;
            }
        }
    }

    /// The invariant every row read relies on, for an `n_rows × n_cols`
    /// matrix: `n_rows + 1` offsets rising from 0 to the entry count,
    /// one value per entry, and each row's column ids strictly increasing
    /// (sorted for binary search, no duplicates) and below `n_cols`.
    /// `Err` names the first clause that fails.
    fn check(&self, n_rows: u32, n_cols: u32) -> Result<(), &'static str> {
        if self.ptr.len() != n_rows as usize + 1 {
            return Err("CSR offsets: one per row plus one");
        }
        if self.ptr[0] != 0 {
            return Err("CSR offsets starting at 0");
        }
        if self.ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets that never fall");
        }
        if self.ptr[n_rows as usize] as usize != self.idx.len() || self.idx.len() != self.val.len()
        {
            return Err("CSR offsets ending at the entry count, one value per entry");
        }
        for r in 0..n_rows as usize {
            let (cols, _) = self.row(r);
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err("CSR column ids strictly increasing within a row");
            }
            if cols.last().is_some_and(|&c| c >= n_cols) {
                return Err("CSR column ids inside the matrix");
            }
        }
        Ok(())
    }

    #[inline]
    fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.ptr[r] as usize;
        let hi = self.ptr[r + 1] as usize;
        (&self.idx[lo..hi], &self.val[lo..hi])
    }

    #[inline]
    fn row_len(&self, r: usize) -> usize {
        (self.ptr[r + 1] - self.ptr[r]) as usize
    }
}

/// Immutable user×item interaction matrix, stored user-major.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Interactions {
    n_users: u32,
    n_items: u32,
    by_user: Csr,
}

// Field by field as the derive would, then the check every row read and
// per-item pass relies on: a well-formed CSR matrix of the declared
// dimensions.
impl<'de> serde::Deserialize<'de> for Interactions {
    fn deserialize<D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        let m = Interactions {
            n_users: serde::Deserialize::deserialize(d)?,
            n_items: serde::Deserialize::deserialize(d)?,
            by_user: serde::Deserialize::deserialize(d)?,
        };
        m.by_user
            .check(m.n_users, m.n_items)
            .map_err(|what| d.invalid(what))?;
        Ok(m)
    }
}

impl Interactions {
    /// Build from `(user, item, rating)` triplets. Duplicates must have been
    /// resolved upstream ([`crate::DatasetBuilder`] does this).
    pub fn from_ratings(n_users: u32, n_items: u32, ratings: &[Rating]) -> Interactions {
        let triplets = ratings.iter().map(|r| (r.user.0, r.item.0, r.value));
        Interactions {
            n_users,
            n_items,
            by_user: Csr::from_triplets(n_users, triplets),
        }
    }

    /// Number of users `|U|` in the id space (including users with no rows).
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of items `|I|` in the id space (including unrated items).
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of stored ratings.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.by_user.idx.len()
    }

    /// Items rated by `u` with their ratings — `I_u^R` (sorted by item id).
    #[inline]
    pub fn user_row(&self, u: UserId) -> (&[u32], &[f32]) {
        self.by_user.row(u.idx())
    }

    /// `|I_u^R|`: the user's activity.
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        self.by_user.row_len(u.idx())
    }

    /// Look up a single rating, if present (binary search in the user's row).
    pub fn get(&self, u: UserId, i: ItemId) -> Option<f32> {
        let (items, vals) = self.user_row(u);
        items.binary_search(&i.0).ok().map(|k| vals[k])
    }

    /// Whether user `u` has rated item `i`.
    #[inline]
    pub fn contains(&self, u: UserId, i: ItemId) -> bool {
        self.get(u, i).is_some()
    }

    /// Iterate all `(user, item, rating)` triplets in user-major order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, ItemId, f32)> + '_ {
        (0..self.n_users).flat_map(move |u| {
            let (items, vals) = self.by_user.row(u as usize);
            items
                .iter()
                .zip(vals.iter())
                .map(move |(&i, &v)| (UserId(u), ItemId(i), v))
        })
    }

    /// Mean rating over all stored interactions (the global mean `μ`).
    pub fn global_mean(&self) -> f64 {
        if self.nnz() == 0 {
            return 0.0;
        }
        let sum: f64 = self.by_user.val.iter().map(|&v| v as f64).sum();
        sum / self.nnz() as f64
    }

    /// Per-item mean rating, `NaN`-free: items with no ratings get `fallback`.
    /// One pass over the rows: each item's sum starts at `-0.0` and adds its
    /// ratings in ascending user order, as `Iterator::sum` over the item's
    /// raters would.
    pub fn item_means(&self, fallback: f64) -> Vec<f64> {
        let mut sums = vec![-0.0f64; self.n_items as usize];
        let mut counts = vec![0u32; self.n_items as usize];
        for (&i, &v) in self.by_user.idx.iter().zip(self.by_user.val.iter()) {
            sums[i as usize] += v as f64;
            counts[i as usize] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { fallback } else { s / c as f64 })
            .collect()
    }

    /// Per-item popularity vector `f^R` (Table III / §II-A): one counting
    /// pass over every stored rating, so a caller takes it once and keeps it.
    pub fn item_popularity(&self) -> Vec<u32> {
        let mut pop = vec![0u32; self.n_items as usize];
        for &i in self.by_user.idx.iter() {
            pop[i as usize] += 1;
        }
        pop
    }

    /// Per-user activity vector `|I_u^R|`.
    pub fn user_activity(&self) -> Vec<u32> {
        (0..self.n_users)
            .map(|u| self.by_user.row_len(u as usize) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, RatingScale};
    use proptest::prelude::*;

    fn sample() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for &(u, i, r) in &[
            (0u32, 0u32, 5.0f32),
            (0, 2, 3.0),
            (1, 0, 4.0),
            (2, 1, 2.0),
            (2, 0, 1.0),
        ] {
            b.push(UserId(u), ItemId(i), r).unwrap();
        }
        b.build().unwrap().interactions()
    }

    #[test]
    fn rows_hold_each_users_ratings_sorted_by_item() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        let (items, vals) = m.user_row(UserId(0));
        assert_eq!(items, &[0, 2]);
        assert_eq!(vals, &[5.0, 3.0]);
        let (items, vals) = m.user_row(UserId(2));
        assert_eq!(items, &[0, 1]);
        assert_eq!(vals, &[1.0, 2.0]);
    }

    #[test]
    fn degrees_match() {
        let m = sample();
        assert_eq!(m.user_degree(UserId(2)), 2);
        assert_eq!(m.item_popularity(), vec![3, 1, 1]);
        assert_eq!(m.user_activity(), vec![2, 1, 2]);
    }

    #[test]
    fn get_and_contains() {
        let m = sample();
        assert_eq!(m.get(UserId(0), ItemId(2)), Some(3.0));
        assert_eq!(m.get(UserId(0), ItemId(1)), None);
        assert!(m.contains(UserId(1), ItemId(0)));
        assert!(!m.contains(UserId(1), ItemId(2)));
    }

    #[test]
    fn iter_yields_all_triplets_sorted() {
        let m = sample();
        let got: Vec<(u32, u32)> = m.iter().map(|(u, i, _)| (u.0, i.0)).collect();
        assert_eq!(got, vec![(0, 0), (0, 2), (1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn global_and_item_means() {
        let m = sample();
        assert!((m.global_mean() - 3.0).abs() < 1e-9);
        let means = m.item_means(0.0);
        assert!((means[0] - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(means[1], 2.0);
        assert_eq!(means[2], 3.0);
    }

    /// Random 14 × 12 matrices whose ratings never touch users 5 and 13
    /// nor items 4 and 11: every draw has empty rows and empty columns, in
    /// the middle and at the end. Ratings arrive in draw order, so rows are
    /// sorted at construction.
    fn arb_holed() -> impl Strategy<Value = Interactions> {
        proptest::collection::vec((0u32..12, 0u32..10, 1u32..=10), 0..80).prop_map(|draws| {
            let mut seen = std::collections::HashSet::new();
            let ratings: Vec<Rating> = draws
                .into_iter()
                .map(|(u, i, r)| Rating {
                    user: UserId(u + u32::from(u >= 5)),
                    item: ItemId(i + u32::from(i >= 4)),
                    value: r as f32 / 2.0,
                })
                .filter(|r| seen.insert((r.user, r.item)))
                .collect();
            Interactions::from_ratings(14, 12, &ratings)
        })
    }

    /// The item-major reference: each item's raters with their ratings, in
    /// ascending user order, read back from the user-major triplets.
    fn columns(m: &Interactions) -> Vec<Vec<(u32, f32)>> {
        let mut cols = vec![Vec::new(); m.n_items() as usize];
        for (u, i, v) in m.iter() {
            cols[i.idx()].push((u.0, v));
        }
        cols
    }

    proptest! {
        #[test]
        fn item_popularity_matches_an_item_major_reference(m in arb_holed()) {
            let want: Vec<u32> = columns(&m).iter().map(|c| c.len() as u32).collect();
            prop_assert_eq!(m.item_popularity(), want);
        }

        #[test]
        fn item_means_match_an_item_major_reference_bit_for_bit(m in arb_holed()) {
            for fallback in [0.0, -0.0, 2.5] {
                let want: Vec<u64> = columns(&m)
                    .iter()
                    .map(|col| {
                        if col.is_empty() {
                            return f64::to_bits(fallback);
                        }
                        let sum: f64 = col.iter().map(|&(_, v)| v as f64).sum();
                        (sum / col.len() as f64).to_bits()
                    })
                    .collect();
                let got: Vec<u64> = m.item_means(fallback).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// `m` after `edit`, through an encode and a decode.
    fn decoded(
        m: &Interactions,
        edit: impl Fn(&mut Interactions),
    ) -> bincode::Result<Interactions> {
        let mut edited = m.clone();
        edit(&mut edited);
        bincode::deserialize(&bincode::serialize(&edited).unwrap())
    }

    /// `edit` makes the decode fail on the clause named `what`.
    fn assert_refused(what: &str, edit: impl Fn(&mut Interactions)) {
        match decoded(&sample(), edit) {
            Err(e) => assert!(e.to_string().contains(what), "{what}: refused with {e}"),
            Ok(_) => panic!("{what}: decoded a matrix a row read would misread"),
        }
    }

    #[test]
    fn a_well_formed_matrix_round_trips() {
        let m = sample();
        assert_eq!(decoded(&m, |_| {}).unwrap(), m);
        // by_user's offsets: users 0, 1, 2 rated 2, 1, 2 items.
        assert_eq!(&*m.by_user.ptr, &[0, 2, 3, 5]);
    }

    #[test]
    fn offsets_not_one_per_row_plus_one_are_refused() {
        assert_refused("one per row plus one", |m| {
            m.by_user.ptr = m.by_user.ptr[..3].into();
        });
    }

    #[test]
    fn offsets_not_starting_at_zero_are_refused() {
        assert_refused("starting at 0", |m| m.by_user.ptr[0] = 1);
    }

    #[test]
    fn falling_offsets_are_refused() {
        assert_refused("never fall", |m| m.by_user.ptr[2] = 1);
    }

    #[test]
    fn offsets_not_ending_at_the_entry_count_are_refused() {
        assert_refused("ending at the entry count", |m| m.by_user.ptr[3] = 4);
        assert_refused("one value per entry", |m| {
            m.by_user.val = m.by_user.val[..4].into();
        });
    }

    #[test]
    fn unsorted_or_repeated_column_ids_are_refused() {
        // User 0's row is items [0, 2].
        assert_refused("strictly increasing", |m| m.by_user.idx.swap(0, 1));
        assert_refused("strictly increasing", |m| m.by_user.idx[1] = 0);
    }

    #[test]
    fn column_ids_outside_the_matrix_are_refused() {
        // User 2's row is items [0, 1]; there are 3 items.
        assert_refused("inside the matrix", |m| m.by_user.idx[4] = 3);
    }

    #[test]
    fn empty_rows_are_empty() {
        // User id space can exceed the users that actually appear.
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(3), ItemId(1), 2.0).unwrap();
        let m = b.build().unwrap().interactions();
        assert_eq!(m.n_users(), 4);
        assert_eq!(m.user_degree(UserId(0)), 0);
        let (items, _) = m.user_row(UserId(1));
        assert!(items.is_empty());
    }
}
