//! "A list does not depend on where it is served", as one property: random
//! data, fit and schedule — recommends under every option shape, keyed,
//! unkeyed, resent and unknown-id ingests, refits — replayed against every
//! deployment shape, which must agree after every step (`oracle` holds the
//! shapes, the checks and the shrinker).

mod oracle;

use oracle::*;
use proptest::prelude::*;

proptest! {
    /// Every drawn case: every shape answers alike after every step, the
    /// batch reference agrees until the first ingest, a refit matches a
    /// from-scratch fit, and the HTTP front's bytes match hand-built ones.
    #[test]
    fn every_deployment_shape_answers_alike(case in cases()) {
        check(case.0, case.1);
    }
}

/// A planted divergence — an ingest of item 7 followed, later, by a refit
/// — inside a generated 30-step schedule shrinks to exactly those two
/// steps, and the failure message prints them as a literal `check` call.
#[test]
fn the_shrinker_cuts_a_planted_divergence_to_its_two_steps() {
    let planted = |steps: &[Step]| {
        let ingest = steps.iter().position(|s| matches!(s, Ingest(_, _, 7, _)));
        ingest.is_some_and(|k| steps[k..].contains(&Refit))
    };
    let setup = Setup {
        data: Grid(7),
        base: Pop,
        coverage: Dynamic,
        accuracy: Normalized,
        n: 5,
    };
    let steps = (0..)
        .map(|seed| schedule(&mut proptest::new_rng(seed), setup.data.dims(), 30))
        .find(|steps| planted(steps))
        .unwrap();
    assert_eq!(steps.len(), 30);

    let minimal = shrink(steps, planted);
    let [Ingest(key, user, 7, rating), Refit] = &minimal[..] else {
        panic!("not cut to the planted pair: {minimal:?}");
    };
    let message = failure(3, &setup, &minimal, "planted");
    let literal = format!(
        "check(Setup {{ data: Grid(7), base: Pop, coverage: Dynamic, accuracy: Normalized, \
         n: 5 }}, vec![Ingest({key:?}, {user}, 7, {rating}), Refit]);"
    );
    assert!(message.contains("case 3 diverged: planted"), "{message}");
    assert!(message.contains(&literal), "{message}\nwant {literal}");
}
