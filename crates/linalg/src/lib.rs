//! # ganc-linalg
//!
//! Minimal dense linear algebra substrate for the PureSVD recommender:
//!
//! * [`DMat`] — row-major dense `f64` matrices with the handful of products
//!   the SVD pipeline needs, and [`dmat::dot_columns`], the one scoring
//!   kernel of the factor recommenders (one user against every column of
//!   a `k × n_items` matrix, bit-identical to a per-item dot product).
//! * [`qr::thin_qr`] — thin QR via modified Gram–Schmidt with
//!   re-orthogonalization (numerically robust enough for range finding).
//!   Column `c`'s second round and column `c + 1`'s first run as two
//!   interleaved dot chains in one pass over each earlier column; each
//!   vector still takes the same projections in the same order, summed left
//!   to right from `-0.0`, so `Q` is bit-identical to the one-column-at-a-
//!   time loop (pinned by `qr::tests` with `to_bits()`).
//! * [`eig::symmetric_eigen`] — cyclic Jacobi eigendecomposition of small
//!   symmetric matrices.
//! * [`svd::randomized_svd`] — Halko–Martinsson–Tropp randomized truncated
//!   SVD over any [`svd::LinOp`], so sparse rating matrices never have to be
//!   densified.
//!
//! The paper's PSVD10/PSVD100 configurations (§IV-A) are `k = 10` and
//! `k = 100` truncations computed with this module.

pub mod dmat;
pub mod eig;
pub mod qr;
pub mod svd;

pub use dmat::DMat;
pub use svd::{randomized_svd, LinOp, Svd, SvdConfig};
