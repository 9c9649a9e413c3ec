//! Immutable CSR interaction matrices with user-major and item-major views.
//!
//! Every algorithm in the workspace reads interaction data through this type:
//! `row(u)` gives `I_u^R` (the items rated by `u`) and `col(i)` gives `U_i^R`
//! (the users who rated `i`) — the two index sets the paper's notation
//! revolves around (§II-A). Both views are materialized once at construction
//! so hot loops never search or hash.

use crate::dataset::Rating;
use crate::{ItemId, UserId};

/// One compressed-sparse orientation: `ptr` has `n_rows + 1` offsets into the
/// parallel `idx`/`val` arrays. Decoded only inside [`Interactions`], which
/// knows the dimensions to check it against ([`Csr::check`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Csr {
    ptr: Box<[u32]>,
    idx: Box<[u32]>,
    val: Box<[f32]>,
}

impl Csr {
    fn from_triplets(n_rows: u32, rows: &[u32], cols: &[u32], vals: &[f32]) -> Csr {
        debug_assert_eq!(rows.len(), cols.len());
        debug_assert_eq!(rows.len(), vals.len());
        let nnz = rows.len();
        let mut counts = vec![0u32; n_rows as usize + 1];
        for &r in rows {
            counts[r as usize + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        let ptr: Box<[u32]> = counts.clone().into_boxed_slice();
        let mut idx = vec![0u32; nnz].into_boxed_slice();
        let mut val = vec![0f32; nnz].into_boxed_slice();
        let mut cursor = counts;
        for k in 0..nnz {
            let r = rows[k] as usize;
            let at = cursor[r] as usize;
            idx[at] = cols[k];
            val[at] = vals[k];
            cursor[r] += 1;
        }
        // Sort each row by column id for binary-searchable lookups. Rows are
        // typically short, so insertion locality dominates; a per-row sort of
        // index/value pairs is cheap and happens once.
        let mut csr = Csr { ptr, idx, val };
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
    /// orientation: `n_rows + 1` offsets rising from 0 to the entry count,
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

/// Immutable user×item interaction matrix with both orientations.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Interactions {
    n_users: u32,
    n_items: u32,
    by_user: Csr,
    by_item: Csr,
}

// Field by field as the derive would, then the checks every row and column
// read relies on: each orientation is a well-formed CSR matrix of the
// declared dimensions, and the two hold the same number of ratings.
impl<'de> serde::Deserialize<'de> for Interactions {
    fn deserialize<D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        let m = Interactions {
            n_users: serde::Deserialize::deserialize(d)?,
            n_items: serde::Deserialize::deserialize(d)?,
            by_user: serde::Deserialize::deserialize(d)?,
            by_item: serde::Deserialize::deserialize(d)?,
        };
        m.by_user
            .check(m.n_users, m.n_items)
            .and_then(|()| m.by_item.check(m.n_items, m.n_users))
            .map_err(|what| d.invalid(what))?;
        if m.by_user.idx.len() != m.by_item.idx.len() {
            return Err(d.invalid("one rating count for both orientations"));
        }
        Ok(m)
    }
}

impl Interactions {
    /// Build from `(user, item, rating)` triplets. Duplicates must have been
    /// resolved upstream ([`crate::DatasetBuilder`] does this).
    pub fn from_ratings(n_users: u32, n_items: u32, ratings: &[Rating]) -> Interactions {
        let users: Vec<u32> = ratings.iter().map(|r| r.user.0).collect();
        let items: Vec<u32> = ratings.iter().map(|r| r.item.0).collect();
        let vals: Vec<f32> = ratings.iter().map(|r| r.value).collect();
        let by_user = Csr::from_triplets(n_users, &users, &items, &vals);
        let by_item = Csr::from_triplets(n_items, &items, &users, &vals);
        Interactions {
            n_users,
            n_items,
            by_user,
            by_item,
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

    /// Users who rated `i` with their ratings — `U_i^R` (sorted by user id).
    #[inline]
    pub fn item_col(&self, i: ItemId) -> (&[u32], &[f32]) {
        self.by_item.row(i.idx())
    }

    /// `|I_u^R|`: the user's activity.
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        self.by_user.row_len(u.idx())
    }

    /// `|U_i^R|`: the item's popularity `f_i^R`.
    #[inline]
    pub fn item_degree(&self, i: ItemId) -> usize {
        self.by_item.row_len(i.idx())
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
    pub fn item_means(&self, fallback: f64) -> Vec<f64> {
        (0..self.n_items)
            .map(|i| {
                let (_, vals) = self.by_item.row(i as usize);
                if vals.is_empty() {
                    fallback
                } else {
                    vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64
                }
            })
            .collect()
    }

    /// Per-item popularity vector `f^R` (Table III / §II-A).
    pub fn item_popularity(&self) -> Vec<u32> {
        (0..self.n_items)
            .map(|i| self.by_item.row_len(i as usize) as u32)
            .collect()
    }

    /// Per-user activity vector `|I_u^R|`.
    pub fn user_activity(&self) -> Vec<u32> {
        (0..self.n_users)
            .map(|u| self.by_user.row_len(u as usize) as u32)
            .collect()
    }

    /// Mark the items of `u` in a reusable bitmap-like buffer (`true` =
    /// seen). Callers keep one buffer per thread to avoid reallocating.
    pub fn mark_seen(&self, u: UserId, seen: &mut [bool]) {
        debug_assert_eq!(seen.len(), self.n_items as usize);
        let (items, _) = self.user_row(u);
        for &i in items {
            seen[i as usize] = true;
        }
    }

    /// Clear the marks set by [`Interactions::mark_seen`].
    pub fn clear_seen(&self, u: UserId, seen: &mut [bool]) {
        let (items, _) = self.user_row(u);
        for &i in items {
            seen[i as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, RatingScale};

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
    fn rows_and_cols_agree() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        let (items, vals) = m.user_row(UserId(0));
        assert_eq!(items, &[0, 2]);
        assert_eq!(vals, &[5.0, 3.0]);
        let (users, vals) = m.item_col(ItemId(0));
        assert_eq!(users, &[0, 1, 2]);
        assert_eq!(vals, &[5.0, 4.0, 1.0]);
    }

    #[test]
    fn degrees_match() {
        let m = sample();
        assert_eq!(m.user_degree(UserId(2)), 2);
        assert_eq!(m.item_degree(ItemId(0)), 3);
        assert_eq!(m.item_degree(ItemId(1)), 1);
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

    #[test]
    fn mark_and_clear_seen_round_trip() {
        let m = sample();
        let mut seen = vec![false; m.n_items() as usize];
        m.mark_seen(UserId(0), &mut seen);
        assert_eq!(seen, vec![true, false, true]);
        m.clear_seen(UserId(0), &mut seen);
        assert_eq!(seen, vec![false, false, false]);
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
            m.by_item.val = m.by_item.val[..4].into();
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
        assert_refused("inside the matrix", |m| m.by_item.idx[4] = 3);
    }

    #[test]
    fn orientations_disagreeing_on_the_rating_count_are_refused() {
        // Item 0's column is users [0, 1, 2]: drop user 2 from it, leaving
        // a well-formed item-major orientation of 4 ratings.
        assert_refused("one rating count", |m| {
            m.by_item.ptr = vec![0, 2, 3, 4].into();
            m.by_item.idx = vec![0, 1, 2, 0].into();
            m.by_item.val = m.by_item.val[1..].into();
        });
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
