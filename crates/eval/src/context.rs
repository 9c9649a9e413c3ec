//! Shared experiment plumbing: scales, configs, and the per-dataset bundle
//! (generated data + split + evaluation context).

use ganc_dataset::synth::DatasetProfile;
use ganc_dataset::{Dataset, TrainTest};
use ganc_metrics::EvalContext;

/// How big the synthetic datasets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~8× downscaled profiles — minutes for the full suite; used to verify
    /// shapes quickly and by CI-style runs.
    Smoke,
    /// The calibrated Table II scales (ML-10M and Netflix already
    /// downscaled, same density and skew, to fit a laptop budget — the
    /// factors are on `DatasetProfile::{ml_10m, netflix}`).
    Paper,
}

/// Common configuration of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Master seed; every derived RNG mixes a role-specific constant.
    pub seed: u64,
    /// Number of repetitions averaged for randomized variants (the paper
    /// uses 10; the default here is 3 to fit a laptop budget — configurable
    /// via `--runs`).
    pub runs: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: Scale::Smoke,
            seed: 0x6A7C,
            runs: 3,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
        }
    }
}

impl ExpConfig {
    /// The five paper dataset profiles at the configured scale.
    pub fn profiles(&self) -> Vec<DatasetProfile> {
        DatasetProfile::all_paper()
            .into_iter()
            .map(|p| self.scaled(p))
            .collect()
    }

    /// One profile by its Table II short name (`ml-100k`, `ml-1m`,
    /// `ml-10m`, `mt-200k`, `netflix`).
    pub fn profile(&self, short: &str) -> DatasetProfile {
        let p = match short {
            "ml-100k" => DatasetProfile::ml_100k(),
            "ml-1m" => DatasetProfile::ml_1m(),
            "ml-10m" => DatasetProfile::ml_10m(),
            "mt-200k" => DatasetProfile::mt_200k(),
            "netflix" => DatasetProfile::netflix(),
            other => panic!("unknown dataset short name {other:?}"),
        };
        self.scaled(p)
    }

    fn scaled(&self, mut p: DatasetProfile) -> DatasetProfile {
        if self.scale == Scale::Smoke {
            p.n_users = (p.n_users / 8).max(120);
            p.n_items = (p.n_items / 8).max(80);
            p.target_ratings = (p.target_ratings / 64).max(3_000);
            p.name = format!("{}-smoke", p.name);
        }
        p
    }
}

/// A generated dataset with its split and shared evaluation context.
pub struct DataBundle {
    /// Table II short name (`ml-1m`, ...).
    pub short: String,
    /// The generator profile used.
    pub profile: DatasetProfile,
    /// The generated dataset, already mapped onto the 1–5 scale where the
    /// paper does so (MT-200K).
    pub data: Dataset,
    /// Per-user κ split.
    pub split: TrainTest,
    /// Precomputed metric context (relevance sets, popularity, long tail).
    pub ctx: EvalContext,
}

impl DataBundle {
    /// Generate and split one dataset deterministically from the config.
    pub fn prepare(cfg: &ExpConfig, short: &str) -> DataBundle {
        let profile = cfg.profile(short);
        let raw = profile.generate(cfg.seed ^ 0xDA7A);
        // The paper maps MT-200K's 0–10 ratings onto [1,5] before use.
        let data = if profile.scale.max > 5.0 {
            raw.mapped_to_one_five()
        } else {
            raw
        };
        let split = data
            .split_per_user(profile.kappa, cfg.seed ^ 0x5817)
            .expect("profiles always produce splittable data");
        let ctx = EvalContext::new(&split.train, &split.test);
        DataBundle {
            short: short.to_string(),
            profile,
            data,
            split,
            ctx,
        }
    }

    /// All five paper datasets, in Table II order.
    pub fn all(cfg: &ExpConfig) -> Vec<DataBundle> {
        ["ml-100k", "ml-1m", "ml-10m", "mt-200k", "netflix"]
            .iter()
            .map(|s| DataBundle::prepare(cfg, s))
            .collect()
    }

    /// Whether the paper treats this dataset as sparse (plugs in a
    /// different accuracy recommender, §V-B).
    pub fn is_sparse(&self) -> bool {
        self.short == "mt-200k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpConfig {
        ExpConfig {
            scale: Scale::Smoke,
            seed: 1,
            runs: 1,
            threads: 2,
        }
    }

    #[test]
    fn smoke_profiles_shrink() {
        let cfg = smoke();
        let p = cfg.profile("ml-1m");
        assert!(p.n_users < DatasetProfile::ml_1m().n_users);
        assert!(p.name.ends_with("-smoke"));
    }

    #[test]
    fn bundle_maps_mt_to_one_five() {
        let cfg = smoke();
        let b = DataBundle::prepare(&cfg, "mt-200k");
        assert!(b.data.scale().max <= 5.0);
        assert!(b.is_sparse());
        // every rating on [1,5]
        assert!(b
            .data
            .ratings()
            .iter()
            .all(|r| (1.0..=5.0).contains(&r.value)));
    }

    #[test]
    fn bundle_is_deterministic() {
        let cfg = smoke();
        let a = DataBundle::prepare(&cfg, "ml-100k");
        let b = DataBundle::prepare(&cfg, "ml-100k");
        assert_eq!(a.data.n_ratings(), b.data.n_ratings());
        assert_eq!(a.split.train.nnz(), b.split.train.nnz());
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_profile_panics() {
        smoke().profile("ml-20m");
    }
}
