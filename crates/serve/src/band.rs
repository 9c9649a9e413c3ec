//! The θ-band fan-out: where a user is served ([`BandMap`]) and how a batch
//! spanning bands is split, dispatched and put back together
//! ([`band_batch`]).
//!
//! The paper serves each user at their own θ from the coverage snapshot
//! nearest it (Algorithm 1, l. 11–15), so a population cuts cleanly into θ
//! bands. Two layers sit above such bands — the in-process
//! [`crate::ShardedEngine`] and the multi-node router in `ganc-http` — and
//! both place users, split batches, fold band answers and detect generation
//! skew here, so the two cannot drift apart.
//!
//! Concurrency is decided here too: a batch gets one thread per touched band
//! only when it touches more than one band and not all of them are
//! in-process. An in-process band engine already spreads its sub-batch over
//! its own `EngineConfig::threads` workers, so a thread per band on top only
//! oversubscribes the box (bands × threads); overlap pays where a band is a
//! wire round-trip away, and a batch's wall clock is then its slowest band
//! instead of the sum.

use crate::engine::{EngineBatch, ServeError, SlotAnswer};
use ganc_core::query::shard_of;
use ganc_dataset::UserId;

/// Where every user of one population is served: the ascending θ cuts
/// (`cuts.len() + 1` bands, split by [`shard_of`]) and each user's home band
/// under them. Built once per shard-set generation and once per router.
#[derive(Debug)]
pub struct BandMap {
    cuts: Vec<f64>,
    home: Vec<u16>,
}

impl BandMap {
    /// Place every user of `theta` under `cuts`.
    pub fn new(theta: &[f64], cuts: Vec<f64>) -> BandMap {
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be ascending"
        );
        assert!(cuts.len() < u16::MAX as usize, "band count exceeds u16");
        let home = theta.iter().map(|&t| shard_of(&cuts, t) as u16).collect();
        BandMap { cuts, home }
    }

    /// The ascending cut points.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Users the map places.
    pub fn n_users(&self) -> u32 {
        self.home.len() as u32
    }

    /// Users whose home band is `band`.
    pub fn users(&self, band: usize) -> usize {
        self.home.iter().filter(|&&b| b as usize == band).count()
    }

    /// The band that serves `user`: their home band, or under a θ override
    /// the band that owns that θ — the only band whose coverage sub-range
    /// can resolve it. An override changes where a user is served, never
    /// whether they exist: a user past the population is `UnknownUser`.
    pub fn band(&self, user: UserId, theta: Option<f64>) -> Result<usize, ServeError> {
        let &home = self
            .home
            .get(user.idx())
            .ok_or(ServeError::UnknownUser(user))?;
        Ok(theta.map_or(home as usize, |t| shard_of(&self.cuts, t)))
    }

    /// Split a batch by serving band: each band's request positions, in
    /// request order, and one slot per request — already answered for a
    /// user past the population, empty for everyone else.
    pub fn split(
        &self,
        users: &[UserId],
        theta: Option<f64>,
    ) -> (Vec<Vec<usize>>, Vec<Option<SlotAnswer>>) {
        let mut per_band = vec![Vec::new(); self.bands()];
        let mut slots = vec![None; users.len()];
        for (k, &user) in users.iter().enumerate() {
            match self.band(user, theta) {
                Ok(j) => per_band[j].push(k),
                Err(e) => slots[k] = Some(Err(e)),
            }
        }
        (per_band, slots)
    }
}

/// Why a batch spanning bands failed.
#[derive(Debug, PartialEq)]
pub enum BandFault<E> {
    /// The first band, in band order, whose dispatch failed, and its error.
    Band(usize, E),
    /// Two bands answered from different generations: the one the first
    /// band pinned, then the later band's.
    Skew(u64, u64),
}

/// Serve a batch across bands: split it with `map` under the request's θ
/// override, if any (unknown users answered in their own slot), hand each
/// touched band its sub-batch through `dispatch`, and reassemble the answers
/// in request order with the one generation they were served from — `None`
/// when no band was touched.
///
/// Answers fold in band order whatever order they finish in: the first band
/// pins the generation, a later band on another one is
/// [`BandFault::Skew`], and the first failing band's error surfaces as
/// [`BandFault::Band`]. `in_process(j)` says whether band `j` lives in this
/// process; the batch is served on scoped threads, one per touched band,
/// only when it touches more than one band and not all of them are
/// in-process (see the module docs). Otherwise bands are served in sequence
/// and none is dispatched after a failure.
pub fn band_batch<E: Send>(
    map: &BandMap,
    users: &[UserId],
    theta: Option<f64>,
    in_process: impl Fn(usize) -> bool,
    dispatch: impl Fn(usize, &[UserId]) -> Result<EngineBatch, E> + Sync,
) -> Result<(Vec<SlotAnswer>, Option<u64>), BandFault<E>> {
    let (per_band, mut slots) = map.split(users, theta);
    let touched: Vec<(usize, Vec<UserId>)> = per_band
        .iter()
        .enumerate()
        .filter(|(_, idxs)| !idxs.is_empty())
        .map(|(j, idxs)| (j, idxs.iter().map(|&k| users[k]).collect()))
        .collect();
    let dispatch = &dispatch;
    let threaded = touched.len() > 1 && !touched.iter().all(|&(j, _)| in_process(j));
    let mut answered = threaded.then(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = touched
                .iter()
                .map(|(j, sub)| scope.spawn(move || dispatch(*j, sub)))
                .collect();
            let joined: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("band dispatch worker panicked"))
                .collect();
            joined.into_iter()
        })
    });
    let mut generation = None;
    for (j, sub) in &touched {
        let answer = match &mut answered {
            Some(answers) => answers.next().expect("one answer per touched band"),
            None => dispatch(*j, sub),
        };
        let (answers, g) = answer.map_err(|e| BandFault::Band(*j, e))?;
        match generation {
            Some(have) if have != g => return Err(BandFault::Skew(have, g)),
            _ => generation = Some(g),
        }
        for (&k, answer) in per_band[*j].iter().zip(answers) {
            slots[k] = Some(answer);
        }
    }
    let slots = slots.into_iter().map(|s| s.expect("every slot answered"));
    Ok((slots.collect(), generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::ItemId;
    use std::sync::{Arc, Mutex};

    /// Three users, one in each band the cuts `[0.3, 0.6]` make.
    fn map() -> BandMap {
        BandMap::new(&[0.1, 0.5, 0.9], vec![0.3, 0.6])
    }

    /// A band answers each user with a one-item list naming the band.
    fn answer(j: usize, sub: &[UserId], generation: u64) -> EngineBatch {
        let slots = sub.iter().map(|_| Ok(Arc::new(vec![ItemId(j as u32)])));
        (slots.collect(), generation)
    }

    #[test]
    fn answers_land_in_request_order_with_unknown_users_in_their_slot() {
        let users = [UserId(2), UserId(7), UserId(0), UserId(1), UserId(2)];
        let (slots, generation) = band_batch(
            &map(),
            &users,
            None,
            |_| true,
            |j, sub| Ok::<_, ()>(answer(j, sub, 4)),
        )
        .unwrap();
        assert_eq!(generation, Some(4));
        let bands: Vec<_> = slots.into_iter().map(|s| s.map(|l| l[0].0)).collect();
        assert_eq!(
            bands,
            vec![
                Ok(2),
                Err(ServeError::UnknownUser(UserId(7))),
                Ok(0),
                Ok(1),
                Ok(2)
            ]
        );
        let (slots, generation) = band_batch(
            &map(),
            &[UserId(9)],
            None,
            |_| true,
            |j, sub| Ok::<_, ()>(answer(j, sub, 4)),
        )
        .unwrap();
        assert_eq!((slots.len(), generation), (1, None), "no band touched");
    }

    #[test]
    fn in_process_bands_run_in_sequence_and_stop_at_the_first_failure() {
        let users = [UserId(0), UserId(1), UserId(2)];
        let called = Mutex::new(Vec::new());
        let fault = band_batch(
            &map(),
            &users,
            None,
            |_| true,
            |j, sub| {
                called.lock().unwrap().push(j);
                if j == 1 {
                    Err("band down")
                } else {
                    Ok(answer(j, sub, 0))
                }
            },
        );
        assert_eq!(fault.unwrap_err(), BandFault::Band(1, "band down"));
        assert_eq!(
            *called.lock().unwrap(),
            vec![0, 1],
            "band 2 never dispatched"
        );

        // One band across the wire: every band is dispatched, on its own
        // thread, and the fold still names the first failing band and the
        // first skew in band order.
        called.lock().unwrap().clear();
        let fault = band_batch(
            &map(),
            &users,
            None,
            |j| j != 2,
            |j, sub| {
                called.lock().unwrap().push(j);
                Ok::<_, ()>(answer(j, sub, j as u64 / 2))
            },
        );
        assert_eq!(fault.unwrap_err(), BandFault::Skew(0, 1));
        assert_eq!(called.lock().unwrap().len(), 3);
    }

    #[test]
    fn a_theta_override_sends_the_whole_batch_to_the_band_owning_it() {
        let (slots, _) = band_batch(
            &map(),
            &[UserId(0), UserId(1)],
            Some(0.6),
            |_| true,
            |j, sub| Ok::<_, ()>(answer(j, sub, 0)),
        )
        .unwrap();
        assert!(slots.iter().all(|s| s.as_ref().unwrap()[0] == ItemId(2)));
    }
}
