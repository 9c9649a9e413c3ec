//! Sampling substrate: Walker alias tables for O(1) weighted draws and the
//! handful of continuous distributions the synthetic generators need
//! (normal, lognormal, gamma, beta). Implemented here because the allowed
//! dependency set includes `rand` but not `rand_distr`.

use rand::{Rng, RngExt};

/// Walker's alias method: O(n) construction, O(1) sampling from a discrete
/// distribution with arbitrary non-negative weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from non-negative weights. Panics if all weights are zero or the
    /// slice is empty.
    pub fn new(weights: &[f64]) -> AliasTable {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "alias table needs positive finite total weight"
        );
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: anything remaining gets probability 1.
        for &s in small.iter().chain(large.iter()) {
            prob[s as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one category index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let n = self.prob.len();
        let slot = rng.random_range(0..n);
        if rng.random::<f64>() < self.prob[slot] {
            slot as u32
        } else {
            self.alias[slot]
        }
    }
}

/// Standard normal via Box–Muller (the polar form would avoid a trig call
/// but this is nowhere near hot).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    // Guard the log against u = 0.
    let u: f64 = loop {
        let u = rng.random::<f64>();
        if u > 0.0 {
            break u;
        }
    };
    let v: f64 = rng.random::<f64>();
    let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
    mean + std_dev * z
}

/// Lognormal: `exp(N(mu, sigma))` — the user-activity distribution of the
/// synthetic generators.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Gamma(shape, scale=1) via Marsaglia–Tsang, with the Johnk-style boost for
/// shape < 1.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = loop {
            let u = rng.random::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng, 0.0, 1.0);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Beta(a, b) via two gamma draws — used for per-user popularity tilt.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    let x = gamma(rng, a);
    let y = gamma(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA11CE)
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [1.0, 2.0, 7.0];
        let table = AliasTable::new(&weights);
        let mut counts = [0u64; 3];
        let mut r = rng();
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut r) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (k, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[k] as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "category {k}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn alias_table_single_category() {
        let table = AliasTable::new(&[3.5]);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(table.sample(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive finite total")]
    fn alias_table_rejects_zero_weights() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng();
        for &shape in &[0.5, 1.0, 3.0, 9.0] {
            let n = 50_000;
            let mean = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn beta_lands_in_unit_interval_with_right_mean() {
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| beta(&mut r, 2.0, 5.0)).collect();
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0 / 7.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = rng();
        assert!((0..1000).all(|_| log_normal(&mut r, 1.0, 1.5) > 0.0));
    }
}
