//! One round: the phases `serve → hit → ingest → batch → refit` issued
//! against a freshly built stack, every served list judged against the
//! reference, every operation timed from outside.

use crate::gen::Op;
use crate::spans::SpanLog;
use crate::stacks::{Answer, Served, Stack};
use crate::stats::{per_op_ns, CHUNK};
use crate::workload::Script;
use ganc_serve::EngineStats;
use std::ops::Range;
use std::time::Instant;

pub const PHASES: [&str; 5] = ["serve", "hit", "ingest", "batch", "refit"];
const SERVE: usize = 0;
const HIT: usize = 1;
const INGEST: usize = 2;
const BATCH: usize = 3;
const REFIT: usize = 4;

/// Every list the reference served over one round, in issue order, with
/// the generation it was served from.
#[derive(Default)]
pub struct Expected {
    flat: Vec<u32>,
    ends: Vec<usize>,
    generations: Vec<u64>,
    /// Which entries are the first batch repetition's lists (one per user):
    /// the lists `coverage_at_n` and `gini_at_n` are computed over.
    pub first_batch: Range<usize>,
}

impl Expected {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn list(&self, k: usize) -> &[u32] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.flat[start..self.ends[k]]
    }

    /// Swap the first two items of one list in the middle of the round —
    /// the `--wrong-reference` self-test: a run judged against this must
    /// fail.
    pub fn corrupt(&mut self) {
        let k = (0..self.len())
            .skip(self.len() / 2)
            .find(|&k| self.list(k).len() >= 2)
            .expect("a round serves lists of at least two items");
        let start = self.ends[k] - self.list(k).len();
        self.flat.swap(start, start + 1);
    }
}

/// Record the reference's answers, or verify a stack's answers against
/// them, in the same issue order.
pub enum Judge<'a> {
    Record(&'a mut Expected),
    Verify { expected: &'a Expected, next: usize },
}

impl Judge<'_> {
    fn check(&mut self, served: &Served, generation: u64) -> Result<(), String> {
        match self {
            Judge::Record(expected) => {
                expected.flat.extend(served.ids());
                expected.ends.push(expected.flat.len());
                expected.generations.push(generation);
                Ok(())
            }
            Judge::Verify { expected, next } => {
                let k = *next;
                *next += 1;
                if k >= expected.len() {
                    return Err("more lists served than the reference served".to_string());
                }
                if expected.generations[k] != generation {
                    return Err(format!(
                        "list {k}: generation {generation}, reference {}",
                        expected.generations[k]
                    ));
                }
                if !served.matches(expected.list(k)) {
                    return Err(format!(
                        "list {k}: served {:?}, reference {:?}",
                        served.ids(),
                        expected.list(k)
                    ));
                }
                Ok(())
            }
        }
    }

    /// Judge a list against entry `k`, served earlier in this round, when
    /// nothing that could change it has happened since (a cache hit on the
    /// list the prime pass served). Consumes nothing, records nothing: the
    /// hit phase's hundreds of thousands of answers need no entries of
    /// their own.
    fn check_again(&self, k: usize, served: &Served, generation: u64) -> Result<(), String> {
        match self {
            Judge::Record(_) => Ok(()),
            Judge::Verify { expected, .. } => {
                if expected.generations[k] == generation && served.matches(expected.list(k)) {
                    Ok(())
                } else {
                    Err(format!(
                        "cached list differs from list {k}: served {:?} (generation {generation}), reference {:?}",
                        served.ids(),
                        expected.list(k)
                    ))
                }
            }
        }
    }

    fn check_all(&mut self, lists: &[Served], generation: u64) -> Result<(), String> {
        lists.iter().try_for_each(|l| self.check(l, generation))
    }

    fn position(&self) -> usize {
        match self {
            Judge::Record(expected) => expected.len(),
            Judge::Verify { next, .. } => *next,
        }
    }

    fn mark_first_batch(&mut self, range: Range<usize>) {
        if let Judge::Record(expected) = self {
            expected.first_batch = range;
        }
    }

    /// Whether every reference list was consumed (a stack that serves
    /// fewer lists than the reference did not run the same round).
    pub fn exhausted(&self) -> bool {
        match self {
            Judge::Record(_) => true,
            Judge::Verify { expected, next } => *next == expected.len(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCount {
    pub attempted: u64,
    pub failed: u64,
}

/// What one round measured.
pub struct RoundTimes {
    pub serve_wall_s: f64,
    /// Single-user recommend latencies of the serve phase.
    pub rec_ns: Vec<f64>,
    /// Per-request time over cached users (chunk means when chunked).
    pub hit_ns: Vec<f64>,
    /// Per-rating time, from the ingest phase and the serve mix together.
    pub ingest_ns: Vec<f64>,
    pub batch_users: u64,
    pub batch_s: f64,
    pub refit_ms: f64,
    pub counts: [PhaseCount; 5],
    /// Cache lookups of the serve phase that were hits, and all of them.
    pub serve_hits: u64,
    pub serve_lookups: u64,
    /// Cached lists invalidated by ingests over the whole round, read
    /// before the refit (which installs fresh engines in sharded stacks).
    pub invalidated: u64,
}

/// The first failed operation of a round, and the counts up to it.
pub struct Failure {
    pub phase: &'static str,
    pub detail: String,
    pub counts: [PhaseCount; 5],
}

/// Run one round. `first` is the answer that ended the stack's set-up.
/// `chunked` times hit and ingest ops [`CHUNK`] at a time.
pub fn run_round(
    stack: &mut dyn Stack,
    first: Answer,
    script: &Script,
    chunked: bool,
    judge: &mut Judge<'_>,
    mut spans: Option<&mut SpanLog>,
) -> Result<RoundTimes, Failure> {
    let mut counts = [PhaseCount::default(); 5];
    // Early exit with the counts so far; the failed op counts as failed.
    macro_rules! fail {
        ($phase:expr, $detail:expr) => {{
            counts[$phase].failed += 1;
            return Err(Failure {
                phase: PHASES[$phase],
                detail: $detail,
                counts,
            });
        }};
    }
    macro_rules! ok {
        ($phase:expr, $result:expr) => {
            match $result {
                Ok(v) => v,
                Err(detail) => fail!($phase, detail),
            }
        };
    }
    let mut span = |name: &'static str, request: usize, t0: Instant, t1: Instant| {
        if let Some(log) = spans.as_deref_mut() {
            log.record(name, request as u64, t0, t1);
        }
    };

    // ---- warm: the set-up's first answer, then one untimed pass ----
    ok!(SERVE, judge.check(&first.0, first.1));
    let (lists, generation) = ok!(SERVE, stack.recommend_batch(&script.all_users));
    ok!(SERVE, judge.check_all(&lists, generation));
    stack.flush();

    // ---- serve ----
    let before: EngineStats = stack.stats();
    let mut rec_ns = Vec::with_capacity(script.serve.len());
    let mut ingest_ns = Vec::with_capacity(script.ingest.len());
    let wall = Instant::now();
    for (k, op) in script.serve.iter().enumerate() {
        match op {
            Op::Flush => {
                stack.flush();
                continue;
            }
            Op::Rec(user) => {
                let t0 = Instant::now();
                let answer = stack.recommend(*user);
                let t1 = Instant::now();
                rec_ns.push((t1 - t0).as_nanos() as f64);
                span("serve.recommend", k, t0, t1);
                counts[SERVE].attempted += 1;
                let (list, generation) = ok!(SERVE, answer);
                ok!(SERVE, judge.check(&list, generation));
            }
            Op::Ingest(rating, key) => {
                let t0 = Instant::now();
                let answer = stack.ingest(rating, Some(key));
                let t1 = Instant::now();
                ingest_ns.push((t1 - t0).as_nanos() as f64);
                span("serve.ingest", k, t0, t1);
                counts[SERVE].attempted += 1;
                ok!(SERVE, answer);
            }
            Op::Batch(users) => {
                let t0 = Instant::now();
                let answer = stack.recommend_batch(users);
                let t1 = Instant::now();
                span("serve.batch", k, t0, t1);
                counts[SERVE].attempted += 1;
                let (lists, generation) = ok!(SERVE, answer);
                ok!(SERVE, judge.check_all(&lists, generation));
            }
        }
    }
    let serve_wall_s = wall.elapsed().as_secs_f64();
    let after = stack.stats();
    let serve_hits = after.cache_hits - before.cache_hits;
    let serve_lookups = serve_hits + after.cache_misses - before.cache_misses;

    // ---- hit: prime every user's list (untimed), then re-ask ----
    let (lists, generation) = ok!(HIT, stack.recommend_batch(&script.all_users));
    // `all_users` is every id ascending: user u's primed list is entry
    // `primed + u`.
    let primed = judge.position();
    ok!(HIT, judge.check_all(&lists, generation));
    let step = if chunked { CHUNK } else { 1 };
    let mut hit_ns = Vec::with_capacity(script.hit.len() / step + 1);
    let mut answers = Vec::with_capacity(step);
    for (c, chunk) in script.hit.chunks(step).enumerate() {
        let t0 = Instant::now();
        for user in chunk {
            answers.push(stack.recommend(*user));
        }
        let t1 = Instant::now();
        hit_ns.push(per_op_ns((t1 - t0).as_nanos() as u64, chunk.len()));
        span("hit.recommend", c * step, t0, t1);
        for (answer, user) in answers.drain(..).zip(chunk) {
            counts[HIT].attempted += 1;
            let (list, generation) = ok!(HIT, answer);
            ok!(
                HIT,
                judge.check_again(primed + *user as usize, &list, generation)
            );
        }
    }

    // ---- ingest ----
    let mut acks = Vec::with_capacity(step);
    for (c, chunk) in script.ingest.chunks(step).enumerate() {
        let t0 = Instant::now();
        for rating in chunk {
            acks.push(stack.ingest(rating, None));
        }
        let t1 = Instant::now();
        ingest_ns.push(per_op_ns((t1 - t0).as_nanos() as u64, chunk.len()));
        span("ingest.ingest", c * step, t0, t1);
        for ack in acks.drain(..) {
            counts[INGEST].attempted += 1;
            ok!(INGEST, ack);
        }
    }

    // ---- batch: the whole population, cache flushed before each ----
    let mut batch_s = 0.0;
    for rep in 0..script.batch_reps {
        stack.flush();
        let t0 = Instant::now();
        let answer = stack.recommend_batch(&script.all_users);
        let t1 = Instant::now();
        batch_s += (t1 - t0).as_secs_f64();
        span("batch.recommend_batch", rep, t0, t1);
        counts[BATCH].attempted += 1;
        let (lists, generation) = ok!(BATCH, answer);
        let start = judge.position();
        ok!(BATCH, judge.check_all(&lists, generation));
        if rep == 0 {
            judge.mark_first_batch(start..judge.position());
        }
    }
    let invalidated = stack.stats().invalidated;

    // ---- refit: merge, fit, hot-swap, first answer of the new generation ----
    let t0 = Instant::now();
    let swapped = stack.refit();
    let answer = stack.recommend(script.first_user);
    let t1 = Instant::now();
    span("refit.refit", 0, t0, t1);
    counts[REFIT].attempted += 1;
    ok!(REFIT, swapped);
    let (list, generation) = ok!(REFIT, answer);
    ok!(REFIT, judge.check(&list, generation));
    for user in &script.after_refit {
        let (list, generation) = ok!(REFIT, stack.recommend(*user));
        ok!(REFIT, judge.check(&list, generation));
    }
    if !judge.exhausted() {
        fail!(
            REFIT,
            "fewer lists served than the reference served".to_string()
        );
    }

    Ok(RoundTimes {
        serve_wall_s,
        rec_ns,
        hit_ns,
        ingest_ns,
        batch_users: (script.batch_reps * script.all_users.len()) as u64,
        batch_s,
        refit_ms: (t1 - t0).as_secs_f64() * 1e3,
        counts,
        serve_hits,
        serve_lookups,
        invalidated,
    })
}
