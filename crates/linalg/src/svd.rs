//! Randomized truncated SVD (Halko–Martinsson–Tropp) over abstract linear
//! operators.
//!
//! PureSVD (§III-A of the paper) needs the dominant `k` singular triplets of
//! the zero-imputed user×item rating matrix. That matrix is sparse, so the
//! algorithm only ever touches it through matrix–block products
//! `A·X` / `Aᵀ·X` exposed by the [`LinOp`] trait — the recommender crate
//! implements `LinOp` for its CSR interaction matrix and never densifies.

use crate::dmat::DMat;
use crate::eig::symmetric_eigen;
use crate::qr::thin_qr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Abstract linear operator: anything that can multiply dense blocks from
/// the left (`A·X`) and transposed (`Aᵀ·X`).
pub trait LinOp {
    /// Row count of `A`.
    fn rows(&self) -> usize;
    /// Column count of `A`.
    fn cols(&self) -> usize;
    /// `A × x` where `x` is `cols × k`; result is `rows × k`.
    fn apply(&self, x: &DMat) -> DMat;
    /// `Aᵀ × x` where `x` is `rows × k`; result is `cols × k`.
    fn apply_t(&self, x: &DMat) -> DMat;
}

impl LinOp for DMat {
    fn rows(&self) -> usize {
        DMat::rows(self)
    }

    fn cols(&self) -> usize {
        DMat::cols(self)
    }

    fn apply(&self, x: &DMat) -> DMat {
        self.matmul(x)
    }

    fn apply_t(&self, x: &DMat) -> DMat {
        self.t_matmul(x)
    }
}

/// Extra columns sampled beyond the rank for accuracy (`p`).
const OVERSAMPLE: usize = 10;

/// Power (subspace) iterations `q`; 2 is enough for rating matrices whose
/// spectra decay slowly.
const POWER_ITERS: usize = 2;

/// Configuration of the randomized range finder.
#[derive(Debug, Clone, Copy)]
pub struct SvdConfig {
    /// Number of singular triplets to keep (`k`).
    pub rank: usize,
    /// RNG seed for the Gaussian test matrix.
    pub seed: u64,
}

impl SvdConfig {
    /// Config with sensible defaults for a given rank.
    pub fn with_rank(rank: usize) -> SvdConfig {
        SvdConfig {
            rank,
            seed: 0x05EE_D57D,
        }
    }
}

/// A truncated singular value decomposition `A ≈ U diag(s) Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `rows × k`.
    pub u: DMat,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors, `cols × k`.
    pub v: DMat,
}

impl Svd {
    /// Reconstruct the rank-`k` approximation (test/debug helper; dense).
    pub fn reconstruct(&self) -> DMat {
        let mut us = self.u.clone();
        us.scale_cols(&self.s);
        let vt = self.v.transpose();
        us.matmul(&vt)
    }
}

/// Compute a randomized truncated SVD of `a`.
///
/// Algorithm (Halko et al. 2011, Alg. 4.4 + 5.1 adapted to a Gram-matrix
/// small-SVD):
/// 1. Sample a Gaussian test block `Ω` with `k + p` columns.
/// 2. Range-find `Q = qr(A Ω)` with `q` power iterations, re-orthonormalizing
///    after every product for stability.
/// 3. Form `B = Qᵀ A` implicitly as `(Aᵀ Q)ᵀ` and eigendecompose the small
///    Gram matrix `B Bᵀ = W Λ Wᵀ`.
/// 4. `σ = √λ`, `U = Q W`, `V = Bᵀ W diag(1/σ)`, truncated to `k`.
pub fn randomized_svd<A: LinOp>(a: &A, config: SvdConfig) -> Svd {
    let m = a.rows();
    let n = a.cols();
    assert!(m > 0 && n > 0, "operator must be non-empty");
    let k = config.rank.max(1).min(m.min(n));
    let sketch = (k + OVERSAMPLE).min(m.min(n));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let omega = DMat::from_fn(n, sketch, |_, _| ganc_gaussian(&mut rng));
    // Stage A: range finding with power iterations.
    let mut q = thin_qr(&a.apply(&omega));
    for _ in 0..POWER_ITERS {
        let z = thin_qr(&a.apply_t(&q));
        q = thin_qr(&a.apply(&z));
    }
    // Stage B: project. bt = Aᵀ Q  (n × sketch), so B = btᵀ.
    let bt = a.apply_t(&q);
    // Small Gram matrix B Bᵀ = btᵀ bt (sketch × sketch).
    let gram = bt.t_matmul(&bt);
    let eig = symmetric_eigen(&gram);
    let mut s: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    // U = Q W, V = bt W diag(1/σ)
    let u_full = q.matmul(&eig.vectors);
    let mut v_full = bt.matmul(&eig.vectors);
    let inv_s: Vec<f64> = s
        .iter()
        .map(|&x| if x > 1e-12 { 1.0 / x } else { 0.0 })
        .collect();
    v_full.scale_cols(&inv_s);
    s.truncate(k);
    Svd {
        u: u_full.truncate_cols(k),
        s,
        v: v_full.truncate_cols(k),
    }
}

/// Standard normal draw (Box–Muller, local copy to keep this crate free of a
/// dependency on `ganc-dataset`).
fn ganc_gaussian(rng: &mut StdRng) -> f64 {
    use rand::RngExt;
    let u: f64 = loop {
        let u = rng.random::<f64>();
        if u > 0.0 {
            break u;
        }
    };
    let v: f64 = rng.random::<f64>();
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a matrix with known singular values via U diag(s) Vᵀ where U, V
    /// come from QR of fixed matrices.
    fn planted(m: usize, n: usize, svals: &[f64]) -> DMat {
        let k = svals.len();
        let u = thin_qr(&DMat::from_fn(m, k, |r, c| ((r * 13 + c * 7) as f64).sin()));
        let v = thin_qr(&DMat::from_fn(n, k, |r, c| ((r * 5 + c * 11) as f64).cos()));
        let mut us = u.clone();
        us.scale_cols(svals);
        us.matmul(&v.transpose())
    }

    #[test]
    fn recovers_planted_singular_values() {
        let a = planted(40, 25, &[10.0, 5.0, 2.0, 1.0]);
        let svd = randomized_svd(&a, SvdConfig::with_rank(4));
        for (got, want) in svd.s.iter().zip(&[10.0, 5.0, 2.0, 1.0]) {
            assert!((got - want).abs() < 1e-8, "got {got}, want {want}");
        }
    }

    #[test]
    fn low_rank_reconstruction_is_exact() {
        let a = planted(30, 20, &[4.0, 2.0]);
        let svd = randomized_svd(&a, SvdConfig::with_rank(2));
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn truncation_keeps_dominant_directions() {
        let a = planted(30, 20, &[9.0, 3.0, 0.5]);
        let svd = randomized_svd(&a, SvdConfig::with_rank(2));
        assert_eq!(svd.s.len(), 2);
        assert!((svd.s[0] - 9.0).abs() < 1e-6);
        assert!((svd.s[1] - 3.0).abs() < 1e-6);
        // Error of the rank-2 approximation is the dropped σ₃ = 0.5.
        let err = svd.reconstruct().max_abs_diff(&a);
        assert!(err < 0.5, "error {err} should be bounded by dropped σ");
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = planted(25, 25, &[6.0, 4.0, 1.0]);
        let svd = randomized_svd(&a, SvdConfig::with_rank(3));
        let gu = svd.u.t_matmul(&svd.u);
        let gv = svd.v.t_matmul(&svd.v);
        assert!(gu.max_abs_diff(&DMat::identity(3)) < 1e-8);
        assert!(gv.max_abs_diff(&DMat::identity(3)) < 1e-8);
    }

    #[test]
    fn rank_larger_than_dims_is_clamped() {
        let a = planted(6, 4, &[3.0, 1.0]);
        let svd = randomized_svd(&a, SvdConfig::with_rank(10));
        assert_eq!(svd.s.len(), 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = planted(20, 15, &[5.0, 2.0, 1.0]);
        let s1 = randomized_svd(&a, SvdConfig::with_rank(3));
        let s2 = randomized_svd(&a, SvdConfig::with_rank(3));
        assert!(s1.u.max_abs_diff(&s2.u) < 1e-15);
        assert_eq!(s1.s, s2.s);
    }

    #[test]
    fn zero_matrix_yields_zero_spectrum() {
        let a = DMat::zeros(8, 5);
        let svd = randomized_svd(&a, SvdConfig::with_rank(3));
        assert!(svd.s.iter().all(|&s| s.abs() < 1e-10));
    }
}
