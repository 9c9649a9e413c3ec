//! Thin QR factorization via modified Gram–Schmidt.
//!
//! Used as the range orthonormalizer inside the randomized SVD. A single MGS
//! pass loses orthogonality on ill-conditioned inputs, so columns are
//! re-orthogonalized once ("twice is enough", Giraud et al.), which is
//! plenty for subspace iteration.
//!
//! Each MGS dot product is one serial chain of adds, so the work is bound by
//! add latency, not by arithmetic. The columns are pipelined to run two
//! chains side by side: column `c`'s second round and column `c + 1`'s first
//! round share one pass over each accepted `q_j` (`j < c`), with the pair
//! stored interleaved (`[f64; 2]` per row). Each pass also fuses the
//! subtraction of the previous projection with the next dot product, and the
//! last pass takes column `c`'s squared norm. What stays serial per column
//! is column `c + 1`'s projection on the fresh `q_c` and column `c`'s norm.
//!
//! The result is bit-identical to the textbook loop (one column at a time,
//! two full rounds): every vector receives the same projections in the same
//! order, each element is updated as `v - p·q`, and every dot product is
//! summed left to right from `-0.0`, as `Iterator::sum` does. Pipelining
//! only interleaves independent chains.

use crate::dmat::DMat;

/// Compute a thin QR factorization, returning only the orthonormal factor
/// `Q` (`m × k` with `k = min(m, n)` columns).
///
/// Rank-deficient columns (norm below `1e-12` after projection) are replaced
/// by deterministic canonical-basis fill-ins re-orthogonalized against the
/// previous columns, so `Q` always has orthonormal columns.
pub fn thin_qr(a: &DMat) -> DMat {
    let m = a.rows();
    let k = m.min(a.cols());
    if k == 0 {
        return DMat::zeros(m, 0);
    }
    let column = |c: usize| (0..m).map(move |r| if c < k { a.get(r, c) } else { 0.0 });
    // Accepted columns, column-major: q_j is `q[j * m..(j + 1) * m]`.
    let mut q: Vec<f64> = Vec::with_capacity(m * k);
    // Lane 0: column c, its first round done. Lane 1: column c + 1, raw
    // (zero past the last column, where it is computed and discarded).
    let mut pair: Vec<[f64; 2]> = column(0).zip(column(1)).map(|(v, w)| [v, w]).collect();
    for c in 0..k {
        let norm = project_pair(&mut pair, &q).sqrt();
        if norm < 1e-12 {
            let (fill, norm) = fill_in(&q, m);
            let inv = 1.0 / norm;
            q.extend(fill.iter().map(|x| x * inv));
        } else {
            let inv = 1.0 / norm;
            q.extend(pair.iter().map(|p| p[0] * inv));
        }
        if c + 1 == k {
            break;
        }
        // Column c + 1's last first-round projection, on the fresh q_c; it
        // moves to lane 0 and column c + 2 enters lane 1.
        let qc = &q[c * m..];
        let mut proj = -0.0;
        for (p, &b) in pair.iter().zip(qc) {
            proj += p[1] * b;
        }
        for ((p, &b), next) in pair.iter_mut().zip(qc).zip(column(c + 2)) {
            *p = [p[1] - proj * b, next];
        }
    }
    DMat::from_vec(k, m, q).transpose()
}

/// Both lanes of `pair` take their projections on each column of `basis`
/// (column-major, `pair.len()` rows each) in order; returns lane 0's
/// squared norm afterwards. The subtraction of one projection runs in the
/// same pass as the dot product with the next column.
fn project_pair(pair: &mut [[f64; 2]], basis: &[f64]) -> f64 {
    let mut columns = basis.chunks_exact(pair.len());
    let Some(first) = columns.next() else {
        return pair.iter().map(|p| p[0] * p[0]).sum();
    };
    let mut proj = [-0.0; 2];
    for (p, &b) in pair.iter().zip(first) {
        proj[0] += p[0] * b;
        proj[1] += p[1] * b;
    }
    let mut prev = first;
    for next in columns {
        let mut dot = [-0.0; 2];
        for ((p, &a), &b) in pair.iter_mut().zip(prev).zip(next) {
            p[0] -= proj[0] * a;
            p[1] -= proj[1] * a;
            dot[0] += p[0] * b;
            dot[1] += p[1] * b;
        }
        proj = dot;
        prev = next;
    }
    let mut norm_sq = -0.0;
    for (p, &a) in pair.iter_mut().zip(prev) {
        p[0] -= proj[0] * a;
        p[1] -= proj[1] * a;
        norm_sq += p[0] * p[0];
    }
    norm_sq
}

/// The deficient column's replacement: the first canonical basis vector
/// whose residual after two MGS rounds against `basis` has norm above
/// `1e-8` (the last one tried if none has), with that norm.
fn fill_in(basis: &[f64], m: usize) -> (Vec<f64>, f64) {
    let mut v = vec![0.0; m];
    let mut norm = 0.0;
    for e in 0..m {
        v.iter_mut().for_each(|x| *x = 0.0);
        v[e] = 1.0;
        for _ in 0..2 {
            for qc in basis.chunks_exact(m) {
                let proj: f64 = v.iter().zip(qc).map(|(a, b)| a * b).sum();
                for (vi, qi) in v.iter_mut().zip(qc) {
                    *vi -= proj * qi;
                }
            }
        }
        norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-8 {
            break;
        }
    }
    (v, norm)
}

/// Max absolute deviation of `qᵀq` from the identity — a test/debug helper
/// for orthonormality.
pub fn orthonormality_error(q: &DMat) -> f64 {
    let gram = q.t_matmul(q);
    let eye = DMat::identity(q.cols());
    gram.max_abs_diff(&eye)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook schedule `thin_qr` pipelines: one column at a time, two
    /// full MGS rounds, then the norm. Kept as the bit-identity reference.
    fn mgs_reference(a: &DMat) -> DMat {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        let mut cols: Vec<Vec<f64>> = (0..n)
            .take(k)
            .map(|c| (0..m).map(|r| a.get(r, c)).collect())
            .collect();
        let mut q: Vec<Vec<f64>> = Vec::with_capacity(k);
        for col in cols.iter_mut().take(k) {
            let mut v = std::mem::take(col);
            for _ in 0..2 {
                for qc in &q {
                    let proj: f64 = v.iter().zip(qc).map(|(a, b)| a * b).sum();
                    for (vi, qi) in v.iter_mut().zip(qc) {
                        *vi -= proj * qi;
                    }
                }
            }
            let mut norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                'fill: for basis in 0..m {
                    v.iter_mut().for_each(|x| *x = 0.0);
                    v[basis] = 1.0;
                    for _ in 0..2 {
                        for qc in &q {
                            let proj: f64 = v.iter().zip(qc).map(|(a, b)| a * b).sum();
                            for (vi, qi) in v.iter_mut().zip(qc) {
                                *vi -= proj * qi;
                            }
                        }
                    }
                    norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if norm > 1e-8 {
                        break 'fill;
                    }
                }
            }
            let inv = 1.0 / norm;
            v.iter_mut().for_each(|x| *x *= inv);
            q.push(v);
        }
        DMat::from_fn(m, k, |r, c| q[c][r])
    }

    /// A deterministic pseudo-random matrix with entries in (-1, 1).
    fn noise(rows: usize, cols: usize, seed: u64) -> DMat {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        DMat::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
    }

    fn assert_bit_identical(a: &DMat) {
        let (got, want) = (thin_qr(a), mgs_reference(a));
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{}×{} input, element {i}: {g} vs {w}",
                a.rows(),
                a.cols()
            );
        }
    }

    #[test]
    fn pipelined_matches_the_reference_over_generated_shapes() {
        // Odd and even column counts (an odd count's last column has no
        // partner), row counts off every lane width, wide inputs (m < n).
        let shapes = [
            (1, 1),
            (1, 4),
            (3, 5),
            (5, 2),
            (7, 3),
            (9, 4),
            (13, 7),
            (17, 8),
            (33, 11),
            (64, 9),
            (101, 16),
            (257, 21),
        ];
        for (seed, &(m, n)) in shapes.iter().enumerate() {
            assert_bit_identical(&noise(m, n, seed as u64));
        }
    }

    #[test]
    fn pipelined_matches_the_reference_on_one_column() {
        for m in [1, 2, 5, 1000] {
            assert_bit_identical(&noise(m, 1, m as u64));
        }
        assert_bit_identical(&DMat::zeros(6, 1));
    }

    #[test]
    fn pipelined_matches_the_reference_on_the_fill_in_path() {
        // Duplicate columns, a zero column between live ones, an all-zero
        // matrix, and columns of exact zeros of both signs.
        let base = noise(23, 4, 7);
        let dup = DMat::from_fn(23, 7, |r, c| base.get(r, [0, 1, 0, 2, 1, 3, 3][c]));
        assert_bit_identical(&dup);
        let gap = DMat::from_fn(19, 5, |r, c| if c == 2 { 0.0 } else { base.get(r, c % 4) });
        assert_bit_identical(&gap);
        for (m, n) in [(5, 2), (5, 5), (8, 3), (4, 7)] {
            assert_bit_identical(&DMat::zeros(m, n));
        }
        let signed = DMat::from_fn(6, 3, |r, c| if (r + c) % 2 == 0 { -0.0 } else { 0.0 });
        assert_bit_identical(&signed);
    }

    #[test]
    fn pipelined_matches_the_reference_on_signed_zeros() {
        // Small matrices over a few exact values, zeros of both signs among
        // them: dot products of exact zeros arise, and each sum's `-0.0`
        // seed decides the sign a zero entry keeps. The two pinned inputs
        // were found by a search; each tells a `+0.0` seed from the
        // reference at one sum (a later pass's dot, the fresh-column one).
        let values = [1.0, -1.0, 0.0, -0.0, 0.0, -0.0, 2.0, -0.5];
        let mut state = 0x1234_5678_9abc_def1_u64;
        let mut draw = |modulus: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % modulus) as usize
        };
        for _ in 0..3000 {
            let (m, n) = (2 + draw(5), 2 + draw(4));
            let data = (0..m * n).map(|_| values[draw(8)]).collect();
            assert_bit_identical(&DMat::from_vec(m, n, data));
        }
        let (z, o) = (-0.0, 0.0);
        #[rustfmt::skip]
        let later_dot = vec![
            1.0, -1.0, z, o, -0.5, z, z, z, o, z, -0.5, -0.5,
            z, z, z, 1.0, o, 2.0, z, 2.0, z, z, z, o,
        ];
        assert_bit_identical(&DMat::from_vec(6, 4, later_dot));
        #[rustfmt::skip]
        let fresh_column = vec![
            z, z, z, 2.0, z, 1.0, z, o, z, -0.5, z, 1.0, z, z, o,
            o, o, 2.0, z, 2.0, -1.0, z, o, o, o, z, -1.0, -0.5, o, -0.5,
        ];
        assert_bit_identical(&DMat::from_vec(6, 5, fresh_column));
    }

    #[test]
    fn pipelined_matches_the_reference_at_the_range_finders_size() {
        assert_bit_identical(&noise(6000, 60, 44));
    }

    #[test]
    fn qr_of_identity_is_identity() {
        let q = thin_qr(&DMat::identity(4));
        assert!(q.max_abs_diff(&DMat::identity(4)) < 1e-12);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = DMat::from_fn(6, 3, |r, c| ((r * 3 + c) as f64).sin() + 0.1 * r as f64);
        let q = thin_qr(&a);
        assert_eq!(q.rows(), 6);
        assert_eq!(q.cols(), 3);
        assert!(
            orthonormality_error(&q) < 1e-10,
            "{}",
            orthonormality_error(&q)
        );
    }

    #[test]
    fn q_spans_the_column_space() {
        // A has rank 2; projecting A onto span(Q) must reproduce A.
        let a = DMat::from_vec(4, 2, vec![1.0, 2.0, 2.0, 4.5, -1.0, 0.0, 3.0, 1.0]);
        let q = thin_qr(&a);
        let proj = q.matmul(&q.t_matmul(&a));
        assert!(proj.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn rank_deficient_input_still_orthonormal() {
        // Two identical columns.
        let a = DMat::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        let q = thin_qr(&a);
        assert!(orthonormality_error(&q) < 1e-8);
    }

    #[test]
    fn zero_matrix_yields_orthonormal_q() {
        let q = thin_qr(&DMat::zeros(5, 2));
        assert!(orthonormality_error(&q) < 1e-8);
    }

    #[test]
    fn wide_matrix_truncates_to_row_count() {
        let a = DMat::from_fn(2, 5, |r, c| (r + c) as f64 + 1.0);
        let q = thin_qr(&a);
        assert_eq!(q.cols(), 2);
        assert!(orthonormality_error(&q) < 1e-10);
    }
}
