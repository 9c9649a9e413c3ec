//! Calibrated synthetic dataset generators.
//!
//! The paper evaluates on ML-100K, ML-1M, ML-10M, MT-200K and Netflix. Those
//! corpora are not redistributable, so this module plants the three
//! statistical properties the paper's phenomena depend on and generates data
//! from them:
//!
//! 1. **Popularity skew** — item consumption follows a lognormal popularity
//!    law whose σ is calibrated per profile so the Pareto long-tail
//!    percentage `L%` lands near Table II.
//! 2. **Sparsity / activity skew** — user activity is lognormal with the
//!    dataset's `τ` floor, scaled to the target rating count, which
//!    reproduces the density `d%` and the large population of infrequent
//!    users (MT-200K, Netflix).
//! 3. **Recoverable preference structure** — ratings come from a planted
//!    latent-factor model (user/item factors + biases + noise) whose item
//!    bias is positively correlated with popularity, reproducing the
//!    popularity bias of real rating data (§VI of the paper).
//!
//! Heavy users exhaust the short head and spill into the tail (plus an
//! explicit exploration mixture), which yields the falling
//! popularity-vs-activity curve of Figure 1 without any special casing.
//!
//! ML-10M and Netflix profiles are **downscaled** (fewer users/items, same
//! density and skew) to fit a laptop budget; scale factors are documented on
//! each constructor.

use crate::dataset::{Dataset, DatasetBuilder, RatingScale};
use crate::sampling::{log_normal, normal, AliasTable};
use crate::{ItemId, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Full configuration of a synthetic dataset generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset display name (suffix `-sim` marks synthetic stand-ins).
    pub name: String,
    /// Number of users `|U|`.
    pub n_users: u32,
    /// Number of items `|I|`.
    pub n_items: u32,
    /// Target number of ratings `|D|` (achieved approximately).
    pub target_ratings: u64,
    /// Minimum ratings per user, `τ` in Table II.
    pub tau: u32,
    /// Train/test ratio `κ` the paper uses for this dataset.
    pub kappa: f64,
    /// Rating scale (MT-200K generates on 0–10 and is mapped to `[1,5]`).
    pub scale: RatingScale,
    /// Lognormal σ of the item popularity law — larger is more skewed.
    /// (A lognormal fits real rating-popularity curves better than a pure
    /// Zipf once per-user de-duplication saturates the head.)
    pub popularity_sigma: f64,
    /// Lognormal σ of user activity — larger means more infrequent users.
    pub activity_sigma: f64,
    /// Base exploration probability: chance a draw is uniform over items
    /// rather than popularity-weighted.
    pub exploration_base: f64,
    /// Additional exploration for the most active users (added pro-rata to
    /// log-activity), producing the Figure 1 downslope.
    pub exploration_activity_boost: f64,
    /// Latent dimensionality of the planted preference model.
    pub latent_dim: usize,
    /// Correlation strength between item popularity and item bias (quality).
    pub popularity_quality: f64,
    /// Rating noise standard deviation (on the 1–5 scale equivalent).
    pub noise: f64,
}

impl DatasetProfile {
    /// ML-100K stand-in at original scale: 943 users × 1682 items, 100K
    /// ratings, τ=20, κ=0.5 (Table II row 1).
    pub fn ml_100k() -> DatasetProfile {
        DatasetProfile {
            name: "ml-100k-sim".into(),
            n_users: 943,
            n_items: 1682,
            target_ratings: 100_000,
            tau: 20,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.1,
            activity_sigma: 0.85,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 12,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// ML-1M stand-in at original scale: 6040 × 3706, 1M ratings, τ=20,
    /// κ=0.5 (Table II row 2).
    pub fn ml_1m() -> DatasetProfile {
        DatasetProfile {
            name: "ml-1m-sim".into(),
            n_users: 6040,
            n_items: 3706,
            target_ratings: 1_000_000,
            tau: 20,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.05,
            activity_sigma: 0.95,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 16,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// ML-10M stand-in, **downscaled ~4.4× in users and items** with the
    /// original density (1.34%) and τ=20, κ=0.5 (Table II row 3):
    /// 16000 × 2460 ≈ 0.53M ratings (τ-floor inflation included).
    pub fn ml_10m() -> DatasetProfile {
        DatasetProfile {
            name: "ml-10m-sim".into(),
            n_users: 16_000,
            n_items: 2_460,
            target_ratings: 455_000,
            tau: 20,
            kappa: 0.5,
            scale: RatingScale::half_stars(),
            popularity_sigma: 2.8,
            activity_sigma: 1.0,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 16,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// MT-200K stand-in at original scale: 7969 × 13864, ~172.5K ratings on
    /// the 0–10 scale, τ=5, κ=0.8 (Table II row 4). Nearly half the users
    /// have fewer than 10 ratings, as in the real corpus.
    pub fn mt_200k() -> DatasetProfile {
        DatasetProfile {
            name: "mt-200k-sim".into(),
            n_users: 7_969,
            n_items: 13_864,
            target_ratings: 172_506,
            tau: 5,
            kappa: 0.8,
            scale: RatingScale::zero_to_ten(),
            popularity_sigma: 2.85,
            activity_sigma: 1.15,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 12,
            popularity_quality: 0.55,
            noise: 1.1,
        }
    }

    /// Netflix stand-in, **downscaled ~18× in users, ~3.5× in items** with
    /// the original density (1.21%): 25000 × 5000 ≈ 1.51M ratings, κ=0.9
    /// standing in for the probe split (Table II row 5).
    pub fn netflix() -> DatasetProfile {
        DatasetProfile {
            name: "netflix-sim".into(),
            n_users: 25_000,
            n_items: 5_000,
            target_ratings: 1_512_500,
            tau: 3,
            kappa: 0.9,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 3.8,
            activity_sigma: 1.25,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 16,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// The five calibrated paper profiles, in Table II order.
    pub fn all_paper() -> Vec<DatasetProfile> {
        vec![
            DatasetProfile::ml_100k(),
            DatasetProfile::ml_1m(),
            DatasetProfile::ml_10m(),
            DatasetProfile::mt_200k(),
            DatasetProfile::netflix(),
        ]
    }

    /// A minuscule profile for unit tests and doc examples (~50 users).
    pub fn tiny() -> DatasetProfile {
        DatasetProfile {
            name: "tiny-sim".into(),
            n_users: 50,
            n_items: 40,
            target_ratings: 600,
            tau: 3,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.0,
            activity_sigma: 0.8,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 4,
            popularity_quality: 0.5,
            noise: 0.8,
        }
    }

    /// A small profile for integration tests and microbenches (~400 users).
    pub fn small() -> DatasetProfile {
        DatasetProfile {
            name: "small-sim".into(),
            n_users: 400,
            n_items: 300,
            target_ratings: 12_000,
            tau: 5,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.0,
            activity_sigma: 0.9,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 8,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// A mid-size profile (~2000 users) used by benches that need realistic
    /// skew without full eval cost.
    pub fn medium() -> DatasetProfile {
        DatasetProfile {
            name: "medium-sim".into(),
            n_users: 2_000,
            n_items: 1_200,
            target_ratings: 80_000,
            tau: 10,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.0,
            activity_sigma: 0.9,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 12,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// A large profile (~6000 users, 4000 items) for serving benches that
    /// need catalog scale beyond [`DatasetProfile::medium`].
    pub fn large() -> DatasetProfile {
        DatasetProfile {
            name: "large-sim".into(),
            n_users: 6_000,
            n_items: 4_000,
            target_ratings: 300_000,
            tau: 10,
            kappa: 0.5,
            scale: RatingScale::stars_1_5(),
            popularity_sigma: 2.0,
            activity_sigma: 0.9,
            exploration_base: 0.08,
            exploration_activity_boost: 0.20,
            latent_dim: 12,
            popularity_quality: 0.5,
            noise: 0.9,
        }
    }

    /// Generate a dataset from this profile, deterministically in `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        Generator::new(self.clone(), seed).run()
    }
}

/// Internal state of one generation run.
struct Generator {
    profile: DatasetProfile,
    rng: StdRng,
}

impl Generator {
    fn new(profile: DatasetProfile, seed: u64) -> Generator {
        Generator {
            profile,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw per-user activity counts, lognormal with floor `τ`, rescaled so
    /// the total lands near `target_ratings`.
    fn activities(&mut self) -> Vec<u32> {
        let p = &self.profile;
        let n = p.n_users as usize;
        let mean_target = p.target_ratings as f64 / n as f64;
        // lognormal mean is exp(mu + sigma^2/2); pick mu for the target mean.
        let mu = mean_target.ln() - p.activity_sigma * p.activity_sigma / 2.0;
        let cap = (p.n_items as f64 * 0.6) as u32;
        let mut acts: Vec<f64> = (0..n)
            .map(|_| log_normal(&mut self.rng, mu, p.activity_sigma))
            .collect();
        // Rescale to hit the target sum, then clamp into [τ, cap].
        let sum: f64 = acts.iter().sum();
        let scale = p.target_ratings as f64 / sum.max(1.0);
        acts.iter_mut().for_each(|a| *a *= scale);
        acts.iter()
            .map(|&a| (a.round() as u32).clamp(p.tau, cap.max(p.tau)))
            .collect()
    }

    /// Draw lognormal popularity weights per item. Item ids carry no
    /// popularity information because each weight is drawn independently.
    fn item_weights(&mut self) -> Vec<f64> {
        let sigma = self.profile.popularity_sigma;
        (0..self.profile.n_items as usize)
            .map(|_| log_normal(&mut self.rng, 0.0, sigma))
            .collect()
    }

    fn run(mut self) -> Dataset {
        let p = self.profile.clone();
        let weights = self.item_weights();
        let table = AliasTable::new(&weights);
        // Exploration draws come from a *flattened* copy of the popularity
        // law (w^0.35) rather than a uniform distribution: a uniform floor
        // would give every tail item the same expected count and erase the
        // Pareto shape real datasets show.
        let flat_weights: Vec<f64> = weights.iter().map(|&w| w.powf(0.35)).collect();
        let flat_table = AliasTable::new(&flat_weights);
        let activities = self.activities();
        let max_log_act = activities
            .iter()
            .map(|&a| (a.max(1) as f64).ln())
            .fold(1.0f64, f64::max);

        // Planted preference model.
        let d = p.latent_dim;
        let factor_scale = 0.55 / (d as f64).sqrt();
        let user_factors: Vec<f64> = (0..p.n_users as usize * d)
            .map(|_| normal(&mut self.rng, 0.0, factor_scale))
            .collect();
        let item_factors: Vec<f64> = (0..p.n_items as usize * d)
            .map(|_| normal(&mut self.rng, 0.0, factor_scale))
            .collect();
        // Popularity-correlated item bias: z-score of log-weight.
        let log_w: Vec<f64> = weights.iter().map(|&w| w.ln()).collect();
        let mean_lw = log_w.iter().sum::<f64>() / log_w.len() as f64;
        let sd_lw = (log_w.iter().map(|x| (x - mean_lw).powi(2)).sum::<f64>() / log_w.len() as f64)
            .sqrt()
            .max(1e-12);
        let item_bias: Vec<f64> = (0..p.n_items as usize)
            .map(|i| {
                p.popularity_quality * 0.35 * (log_w[i] - mean_lw) / sd_lw
                    + normal(&mut self.rng, 0.0, 0.25)
            })
            .collect();
        let user_bias: Vec<f64> = (0..p.n_users as usize)
            .map(|_| normal(&mut self.rng, 0.0, 0.25))
            .collect();

        let span = (p.scale.max - p.scale.min) as f64;
        let center = p.scale.min as f64 + 0.64 * span;
        let spread = span / 4.0; // 1.0 on the 1–5 scale

        let mut builder =
            DatasetBuilder::new(p.name.clone(), p.scale).with_capacity(p.target_ratings as usize);
        let mut chosen: HashSet<u32> = HashSet::new();
        for u in 0..p.n_users as usize {
            let act = activities[u] as usize;
            chosen.clear();
            chosen.reserve(act);
            let explore = (p.exploration_base
                + p.exploration_activity_boost * (activities[u].max(1) as f64).ln() / max_log_act
                + normal(&mut self.rng, 0.0, 0.04))
            .clamp(0.02, 0.95);
            let mut attempts = 0usize;
            let max_attempts = 30 * act + 100;
            while chosen.len() < act && attempts < max_attempts {
                attempts += 1;
                let item = if self.rng.random::<f64>() < explore {
                    flat_table.sample(&mut self.rng)
                } else {
                    table.sample(&mut self.rng)
                };
                chosen.insert(item);
            }
            // Rare fallback for extremely heavy users: fill from a uniform
            // scan of unseen items.
            if chosen.len() < act {
                let start = self.rng.random_range(0..p.n_items);
                for off in 0..p.n_items {
                    if chosen.len() >= act {
                        break;
                    }
                    chosen.insert((start + off) % p.n_items);
                }
            }
            let pu = &user_factors[u * d..(u + 1) * d];
            let mut items: Vec<u32> = chosen.iter().copied().collect();
            items.sort_unstable();
            for &i in &items {
                let qi = &item_factors[i as usize * d..(i as usize + 1) * d];
                let dot: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
                let raw = center
                    + spread
                        * (user_bias[u]
                            + item_bias[i as usize]
                            + dot
                            + normal(&mut self.rng, 0.0, self.profile.noise));
                let value = p.scale.quantize(raw);
                builder
                    .push(UserId(u as u32), ItemId(i), value)
                    .expect("quantized rating is always on scale");
            }
        }
        builder.build().expect("generator always emits ratings")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{activity_popularity_curve, LongTail};

    #[test]
    fn tiny_generation_is_deterministic() {
        let a = DatasetProfile::tiny().generate(7);
        let b = DatasetProfile::tiny().generate(7);
        assert_eq!(a.n_ratings(), b.n_ratings());
        assert_eq!(a.ratings()[0].value, b.ratings()[0].value);
        let c = DatasetProfile::tiny().generate(8);
        // Different seeds should differ (overwhelmingly likely).
        let same = a.n_ratings() == c.n_ratings()
            && a.ratings()
                .iter()
                .zip(c.ratings())
                .all(|(x, y)| x.item == y.item && x.value == y.value);
        assert!(!same);
    }

    #[test]
    fn generation_respects_tau_floor() {
        let p = DatasetProfile::tiny();
        let d = p.generate(3);
        let m = d.interactions();
        for u in 0..d.n_users() {
            assert!(
                m.user_degree(UserId(u)) >= p.tau as usize,
                "user {u} below τ"
            );
        }
    }

    #[test]
    fn generation_hits_target_count_roughly() {
        let p = DatasetProfile::small();
        let d = p.generate(11);
        let got = d.n_ratings() as f64;
        let want = p.target_ratings as f64;
        assert!(
            (got - want).abs() / want < 0.25,
            "got {got} ratings, wanted ≈{want}"
        );
    }

    #[test]
    fn ratings_are_on_scale() {
        let p = DatasetProfile::tiny();
        let d = p.generate(5);
        for r in d.ratings() {
            assert!(p.scale.contains(r.value), "rating {} off scale", r.value);
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let d = DatasetProfile::small().generate(13);
        let m = d.interactions();
        let mut pop = m.item_popularity();
        pop.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = pop.iter().map(|&x| x as u64).sum();
        let head_items = pop.len() / 5; // top 20% of items
        let head_mass: u64 = pop.iter().take(head_items).map(|&x| x as u64).sum();
        assert!(
            head_mass as f64 / total as f64 > 0.4,
            "head mass only {:.2}",
            head_mass as f64 / total as f64
        );
    }

    #[test]
    fn figure_one_shape_holds() {
        let d = DatasetProfile::small().generate(17);
        let split = d.split_per_user(0.5, 1).unwrap();
        let curve = activity_popularity_curve(&split.train, 5);
        assert!(curve.len() >= 3);
        // First-bin users (low activity) consume more popular items on
        // average than last-bin users.
        let first = curve.first().unwrap().mean_avg_popularity;
        let last = curve.last().unwrap().mean_avg_popularity;
        assert!(
            first > last,
            "expected downslope, got first={first:.1} last={last:.1}"
        );
    }

    #[test]
    fn long_tail_fraction_is_large() {
        let d = DatasetProfile::small().generate(23);
        let split = d.split_per_user(0.5, 1).unwrap();
        let lt = LongTail::pareto(&split.train);
        let pct = lt.percent_of(&split.train.item_popularity());
        assert!(
            (40.0..99.0).contains(&pct),
            "long-tail percentage {pct:.1} out of plausible band"
        );
    }

    #[test]
    fn paper_profiles_enumerate_in_order() {
        let names: Vec<String> = DatasetProfile::all_paper()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "ml-100k-sim",
                "ml-1m-sim",
                "ml-10m-sim",
                "mt-200k-sim",
                "netflix-sim"
            ]
        );
    }

    /// Calibration harness: prints d% and L% for every paper profile so the
    /// Zipf exponents can be tuned against Table II. Run with
    /// `cargo test -p ganc-dataset --release calibration -- --ignored --nocapture`.
    #[test]
    #[ignore = "manual calibration tool, slow at full scale"]
    fn calibration_report() {
        for p in DatasetProfile::all_paper() {
            let d = p.generate(42);
            let split = d.split_per_user(p.kappa, 7).unwrap();
            let lt = LongTail::pareto(&split.train);
            println!(
                "{:<14} |D|={:>9} d%={:>5.2} L%={:>5.1} (targets in Table II)",
                p.name,
                d.n_ratings(),
                d.density_percent(),
                lt.percent_of(&split.train.item_popularity()),
            );
        }
    }

    /// Exponent sweep for calibrating L% per profile.
    #[test]
    #[ignore = "manual calibration tool, slow at full scale"]
    fn calibration_sweep() {
        for base in DatasetProfile::all_paper() {
            for s in [1.2, 1.5, 1.8, 2.1, 2.4, 2.7] {
                let mut p = base.clone();
                p.popularity_sigma = s;
                p.exploration_base = 0.08;
                p.exploration_activity_boost = 0.20;
                let d = p.generate(42);
                let split = d.split_per_user(p.kappa, 7).unwrap();
                let lt = LongTail::pareto(&split.train);
                println!(
                    "{:<14} s={:.1} L%={:>5.1}",
                    p.name,
                    s,
                    lt.percent_of(&split.train.item_popularity()),
                );
            }
        }
    }

    #[test]
    fn profile_is_serde() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<DatasetProfile>();
    }
}
