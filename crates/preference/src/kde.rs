//! Gaussian kernel density estimation over the θ distribution, and the
//! KDE-proportional user sampling used by OSLG (Algorithm 1, line 2).
//!
//! The paper cites Sheather–Jones bandwidth selection; this implementation
//! uses Silverman's rule of thumb `h = 0.9·min(σ̂, IQR/1.34)·n^{-1/5}`, which
//! agrees within a bounded constant factor on unimodal data — OSLG only uses
//! the density to *sample representative preference values*, so the sampled
//! user sets are statistically indistinguishable, and the rule of thumb
//! needs no iterative solver.

use ganc_dataset::UserId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A fitted one-dimensional Gaussian KDE.
#[derive(Debug, Clone)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Fit to observations with Silverman's rule-of-thumb bandwidth.
    ///
    /// Panics on an empty slice. Degenerate (constant) data gets a small
    /// positive floor bandwidth so sampling still works.
    pub fn fit(values: &[f64]) -> Kde {
        assert!(!values.is_empty(), "KDE needs at least one observation");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std_dev = var.sqrt();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = |p: f64| -> f64 {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        let iqr = q(0.75) - q(0.25);
        let scale = if iqr > 0.0 {
            std_dev.min(iqr / 1.34)
        } else {
            std_dev
        };
        let bandwidth = (0.9 * scale * n.powf(-0.2)).max(1e-4);
        Kde {
            samples: values.to_vec(),
            bandwidth,
        }
    }

    /// The selected bandwidth `h`.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.samples.len() as f64) * h * (std::f64::consts::TAU).sqrt());
        self.samples
            .iter()
            .map(|&xi| {
                let z = (x - xi) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Draw one value from the KDE (mixture sampling: random kernel + noise).
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        let idx = rng.random_range(0..self.samples.len());
        let center = self.samples[idx];
        center + self.bandwidth * gaussian(rng)
    }
}

/// Select `sample_size` distinct users whose θ values are distributed like
/// the KDE of θ — Algorithm 1, line 2 ("draw a sample S from KDE(θ) and
/// find the corresponding users").
///
/// Each KDE draw is matched to the nearest not-yet-selected user by θ.
/// Deterministic in `seed`. Returns all users if `sample_size ≥ |U|`.
pub fn sample_users_by_kde(theta: &[f64], sample_size: usize, seed: u64) -> Vec<UserId> {
    let n = theta.len();
    if sample_size >= n {
        return (0..n as u32).map(UserId).collect();
    }
    if n == 0 || sample_size == 0 {
        return Vec::new();
    }
    let kde = Kde::fit(theta);
    let mut rng = StdRng::seed_from_u64(seed);
    // Users sorted by θ; `taken` marks already-claimed entries.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        theta[a as usize]
            .partial_cmp(&theta[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let sorted_theta: Vec<f64> = order.iter().map(|&u| theta[u as usize]).collect();
    let mut taken = vec![false; n];
    let mut selected = Vec::with_capacity(sample_size);
    while selected.len() < sample_size {
        let draw = kde.sample(&mut rng);
        // Two-pointer walk outward from the insertion point visits sorted
        // positions in non-decreasing distance from `draw`, so the first
        // unclaimed position is the nearest unclaimed user.
        let pos = sorted_theta.partition_point(|&t| t < draw);
        let mut l = pos as isize - 1;
        let mut r = pos;
        while l >= 0 || r < n {
            let take_left = if l < 0 {
                false
            } else if r >= n {
                true
            } else {
                (draw - sorted_theta[l as usize]).abs() <= (sorted_theta[r] - draw).abs()
            };
            let idx = if take_left {
                let i = l as usize;
                l -= 1;
                i
            } else {
                let i = r;
                r += 1;
                i
            };
            if !taken[idx] {
                taken[idx] = true;
                selected.push(UserId(order[idx]));
                break;
            }
        }
    }
    selected
}

fn gaussian(rng: &mut StdRng) -> f64 {
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

    #[test]
    fn pdf_integrates_to_one() {
        let kde = Kde::fit(&[0.2, 0.4, 0.5, 0.55, 0.8]);
        // Trapezoid over a wide interval.
        let (a, b, steps) = (-2.0, 3.0, 5000);
        let dx = (b - a) / steps as f64;
        let integral: f64 = (0..=steps)
            .map(|k| {
                let x = a + k as f64 * dx;
                let w = if k == 0 || k == steps { 0.5 } else { 1.0 };
                w * kde.pdf(x)
            })
            .sum::<f64>()
            * dx;
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn pdf_peaks_near_data_mass() {
        let kde = Kde::fit(&[0.5, 0.5, 0.5, 0.51, 0.49, 0.1]);
        assert!(kde.pdf(0.5) > kde.pdf(0.1));
        assert!(kde.pdf(0.5) > kde.pdf(0.9));
    }

    #[test]
    fn degenerate_data_still_works() {
        let kde = Kde::fit(&[0.3; 10]);
        assert!(kde.bandwidth() > 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = kde.sample(&mut rng);
        assert!((s - 0.3).abs() < 0.01);
    }

    #[test]
    fn samples_follow_the_distribution() {
        // Bimodal: mass at 0.2 and 0.8.
        let data: Vec<f64> = (0..100)
            .map(|k| if k % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        let kde = Kde::fit(&data);
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<f64> = (0..10_000).map(|_| kde.sample(&mut rng)).collect();
        let near = |c: f64| draws.iter().filter(|&&d| (d - c).abs() < 0.15).count();
        let lo = near(0.2);
        let hi = near(0.8);
        assert!(lo > 3500 && hi > 3500, "lo {lo}, hi {hi}");
    }

    #[test]
    fn user_sampling_is_distinct_and_sized() {
        let theta: Vec<f64> = (0..200).map(|k| k as f64 / 200.0).collect();
        let users = sample_users_by_kde(&theta, 50, 3);
        assert_eq!(users.len(), 50);
        let mut ids: Vec<u32> = users.iter().map(|u| u.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50, "users must be distinct");
    }

    #[test]
    fn user_sampling_tracks_density() {
        // 90% of users near 0.3, 10% near 0.9 — the sample should favor the
        // dense region roughly proportionally.
        let mut theta = vec![0.3; 900];
        theta.extend(vec![0.9; 100]);
        let users = sample_users_by_kde(&theta, 100, 5);
        let dense = users
            .iter()
            .filter(|u| (theta[u.idx()] - 0.3).abs() < 0.2)
            .count();
        assert!(dense > 70, "dense-region users {dense}/100");
    }

    #[test]
    fn oversized_sample_returns_everyone() {
        let theta = vec![0.1, 0.5, 0.9];
        let users = sample_users_by_kde(&theta, 10, 1);
        assert_eq!(users.len(), 3);
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let theta: Vec<f64> = (0..100).map(|k| (k as f64 / 100.0).powi(2)).collect();
        let a = sample_users_by_kde(&theta, 20, 9);
        let b = sample_users_by_kde(&theta, 20, 9);
        assert_eq!(a, b);
    }
}
