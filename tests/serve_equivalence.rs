//! The acceptance property of the serving subsystem: a query served from a
//! fitted `ModelBundle` equals the batch `build_topn` output for that user,
//! both built from one `FitConfig`, for every coverage kind — including
//! Dyn's coupled optimizer — and through the batched path. Each case is one
//! pinned draw of the deployment oracle (`tests/deployment_oracle.rs`),
//! which checks the same reference against every deployment shape.

mod oracle;

use oracle::*;

fn every_user_matches(
    base: Base,
    coverage: ganc::core::CoverageKind,
    accuracy: ganc::core::AccuracyMode,
) {
    let setup = Setup::of(Tiny(321), base, coverage, accuracy);
    check(setup, every_user(&setup));
}

#[test]
fn single_user_queries_match_batch_static() {
    every_user_matches(Pop, Static, Normalized);
}

#[test]
fn single_user_queries_match_batch_random() {
    every_user_matches(Pop, Random, Normalized);
}

#[test]
fn single_user_queries_match_batch_dynamic() {
    every_user_matches(Pop, Dynamic, Normalized);
}

#[test]
fn single_user_queries_match_batch_dynamic_indicator_mode() {
    every_user_matches(Pop, Dynamic, TopNIndicator);
}

#[test]
fn single_user_queries_match_batch_dynamic_personalized_model() {
    every_user_matches(Rsvd, Dynamic, Normalized);
}

/// Batched serving agrees with the batch optimizer too, on the skewed
/// `small` profile.
#[test]
fn batched_serving_matches_batch_output() {
    let setup = Setup::of(Small(321), Pop, Dynamic, Normalized);
    check(setup, vec![one_batch(&setup)]);
}
