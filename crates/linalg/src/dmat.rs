//! Row-major dense `f64` matrices, and the one scoring kernel of the
//! factor models.
//!
//! Deliberately small: only the operations the randomized SVD pipeline and
//! the recommenders need. The factor models keep their item factors
//! transposed (`k × n_items`), so [`dot_columns`] scores one user against
//! every item with the inner loop running *across* items.

use serde::{Deserialize, Deserializer};

/// Items scored per pass over the `k` factor rows in [`dot_columns`]: one
/// accumulator per item, kept in registers.
const TILE: usize = 16;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> DMat {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> DMat {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DMat { rows, cols, data }
    }

    /// Wrap an existing row-major buffer. Panics if the length is wrong.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> DMat {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        DMat { rows, cols, data }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> DMat {
        DMat::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &DMat) -> DMat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = DMat::zeros(self.rows, other.cols);
        // i-k-j loop order: the inner loop streams both `other.row(k)` and
        // `out.row(i)` contiguously.
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                let o_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Transposed product `selfᵀ × other` without materializing the
    /// transpose.
    pub fn t_matmul(&self, other: &DMat) -> DMat {
        assert_eq!(self.rows, other.rows, "row counts must agree");
        let mut out = DMat::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Scale every column `c` by `scales[c]` in place.
    pub fn scale_cols(&mut self, scales: &[f64]) {
        assert_eq!(scales.len(), self.cols);
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &s) in row.iter_mut().zip(scales) {
                *v *= s;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Keep only the first `k` columns.
    pub fn truncate_cols(&self, k: usize) -> DMat {
        let k = k.min(self.cols);
        DMat::from_fn(self.rows, k, |r, c| self.get(r, c))
    }
}

// A decoded matrix is refused unless its buffer holds exactly
// `rows × cols` values, so every accessor's index arithmetic stays in bounds.
impl<'de> Deserialize<'de> for DMat {
    fn deserialize<D: Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        let rows = usize::deserialize(d)?;
        let cols = usize::deserialize(d)?;
        let data = Vec::<f64>::deserialize(d)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(d.invalid("DMat buffer length"));
        }
        Ok(DMat { rows, cols, data })
    }
}

/// `Σ_f p[f] · qt[f][i]`: user weights `p` against column `i` of `qt`
/// (`k × n`), summed left to right from `-0.0` — the identity `f64: Sum`
/// starts from — so it is bit-identical to the row-major dot product of
/// `p` and the item's factors, and to the entry [`dot_columns`] writes.
#[inline]
pub fn dot_column(p: &[f64], qt: &DMat, i: usize) -> f64 {
    assert_eq!(p.len(), qt.rows, "one weight per row of qt");
    assert!(i < qt.cols, "column {i} out of range");
    p.iter()
        .zip(qt.data.iter().skip(i).step_by(qt.cols))
        .fold(-0.0, |sum, (w, q)| sum + w * q)
}

/// `out[i] = dot_column(p, qt, i)` for every `i < out.len()`, bit for bit.
///
/// Scores a tile of `TILE` (16) columns per pass over the `k` rows of `qt`:
/// each column keeps its own accumulator and takes its products in the
/// order `f = 0..k`, as [`dot_column`] does, so no sum is reassociated;
/// the inner loop runs across the tile and vectorises. Columns past the
/// last whole tile take [`dot_column`] itself.
pub fn dot_columns(p: &[f64], qt: &DMat, out: &mut [f64]) {
    assert_eq!(p.len(), qt.rows, "one weight per row of qt");
    assert!(out.len() <= qt.cols, "more scores than columns");
    let whole = out.len() - out.len() % TILE;
    let (tiles, tail) = out.split_at_mut(whole);
    for (t, tile) in tiles.chunks_exact_mut(TILE).enumerate() {
        let mut acc = [-0.0f64; TILE];
        for (f, &w) in p.iter().enumerate() {
            let start = f * qt.cols + t * TILE;
            let q: &[f64; TILE] = qt.data[start..start + TILE].try_into().unwrap();
            for (a, &v) in acc.iter_mut().zip(q) {
                *a += w * v;
            }
        }
        tile.copy_from_slice(&acc);
    }
    for (j, o) in tail.iter_mut().enumerate() {
        *o = dot_column(p, qt, whole + j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The row-major dot product the factor models scored with before
    /// their item factors were stored transposed: the oracle the kernel
    /// must equal bit for bit.
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn construction_and_access() {
        let mut m = DMat::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = DMat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = DMat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMat::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.0, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = DMat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DMat::identity(2);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-15);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn scale_cols_scales() {
        let mut a = DMat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.scale_cols(&[2.0, 0.5]);
        assert_eq!(a.row(0), &[2.0, 1.0]);
        assert_eq!(a.row(1), &[6.0, 2.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = DMat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_cols_keeps_prefix() {
        let a = DMat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.truncate_cols(2);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.row(1), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        let a = DMat::zeros(2, 3);
        let b = DMat::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_of_slices() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    /// A value drawn from a mix that includes both zeros and subnormals,
    /// whose products and sums are where a reordered or re-seeded sum
    /// would show.
    fn value(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(rng.random_range(1..1u64 << 52)), // subnormal
            3 => -f64::MIN_POSITIVE * rng.random::<f64>(),        // subnormal
            _ => rng.random::<f64>() * 2.0 - 1.0,
        }
    }

    #[test]
    fn dot_columns_is_bitwise_the_row_major_dot_for_every_shape() {
        let mut rng = StdRng::seed_from_u64(0xD07C);
        for k in [0, 1, 2, 7, 50, 64] {
            for n in [0, 1, TILE - 1, TILE, TILE + 1, 4_003] {
                let q = DMat::from_fn(n, k, |_, _| value(&mut rng));
                let qt = q.transpose();
                let p: Vec<f64> = (0..k).map(|_| value(&mut rng)).collect();
                // Every prefix length the contract allows, not just `n`.
                for len in [n, n / 2, n.saturating_sub(1), n.min(TILE + 1)] {
                    let mut out = vec![f64::NAN; len];
                    dot_columns(&p, &qt, &mut out);
                    for (i, &s) in out.iter().enumerate() {
                        let want = dot(&p, q.row(i));
                        assert_eq!(s.to_bits(), want.to_bits(), "k={k} n={n} len={len} i={i}");
                        assert_eq!(dot_column(&p, &qt, i).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more scores than columns")]
    fn dot_columns_refuses_more_scores_than_columns() {
        dot_columns(&[1.0], &DMat::zeros(1, 2), &mut [0.0; 3]);
    }

    #[test]
    fn decode_refuses_a_buffer_of_the_wrong_length() {
        let m = DMat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bytes = bincode::serialize(&m).unwrap();
        assert_eq!(bincode::deserialize::<DMat>(&bytes).unwrap(), m);
        // rows 2 → 3: the six values no longer fill a 3 × 3 buffer.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&3u64.to_le_bytes());
        assert!(bincode::deserialize::<DMat>(&bad).is_err());
    }
}
