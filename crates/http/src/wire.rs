//! The `/v1` protocol: every body, query string and error body that has
//! both a writer and a reader in this crate, each encoder beside its
//! decoder. [`crate::server`] and [`crate::client`] move bytes and call
//! engines; what a field is called, which ids fit and what an error body
//! decodes to is decided here and nowhere else.
//!
//! | shape | endpoint, direction | fields | errors |
//! |-------|---------------------|--------|--------|
//! | [`recommend_path`] ↔ [`RecommendQuery::parse`] | `GET /v1/recommend/{user}` → | `?n=K` (served prefix; never sent by [`crate::RemoteShard`]), `theta=` finite in [0, 1], `exclude=1,2,3`, `rerank=pra\|rbt\|5d`; default options send no query string | 400 malformed |
//! | [`recommend_answer`] ↔ [`recommend_answer_from`] | ← 200 | `{"user","generation","items":[..]}` | 404 `unknown_user`, 502 |
//! | [`batch_request`] ↔ [`batch_request_from`] | `POST /v1/recommend:batch` → | `{"users":[..],"theta"?,"exclude"?:[..],"rerank"?}` — the same options under the same rules, present only when set | 400 malformed |
//! | [`batch_answer`] ↔ [`batch_answer_from`] | ← 200 | `{"generation","results":[..]}`, one slot per user in order: `{"user","items"}` or a [`serve_error`] object; the decoder checks the slot count | 502 |
//! | [`ingest_request`] ↔ [`ingest_request_from`] | `POST /v1/ingest` → | `{"user","item","rating","key"?}`; an `Idempotency-Key` header wins over `"key"`; either must pass `validate_key` | 400 malformed |
//! | [`ingest_ack`] ↔ [`ingest_ack_from`] | ← 200 | `{"ok":true}` unkeyed; keyed adds `"deduplicated":bool` | 404 `unknown_user` / `unknown_item`, 502 `durability` |
//! | [`ingest_batch_request`] ↔ [`ingest_batch_request_from`] | `POST /v1/ingest:batch` → | `{"entries":[{"user","item","rating","key"?},..]}` | 400 malformed |
//! | [`ingest_batch_answer`] ↔ [`ingest_batch_answer_from`] | ← 200 | `{"results":[..]}`, one slot per entry in order: `{"ok":true}`, `{"ok":true,"status":"deduplicated"}` or a [`serve_error`] object (`durability` included); slot count checked | 502 |
//! | [`window`] ↔ [`window_from`] | `GET /v1/window` ← 200 | `{"window":null}` or `{"window":{"n_items","lists","items","novelty_microbits","tail_hits","distinct":[..]}}` | 502 |
//! | [`healthz`] ↔ [`generation_from`] | `GET /v1/healthz` ← 200 | `{"ok":true,"generation"}`; the server appends operator-only fields no decoder reads | 502 |
//! | [`error_reply`] / [`error`] ↔ [`error_from`] | any ← non-200 | `{"error":prose}` plus one of `"unknown_user":id` (404), `"unknown_item":id` (404), `"durability":true` (502) ↔ [`BackendError::Serve`]; `"band":j` (502) and plain `error` (400 / 404 / 413 / 502) are for operators and decode to [`BackendError::Transport`] carrying status and prose | — |
//!
//! The two dedup spellings (`"deduplicated":true` on `/v1/ingest`,
//! `"status":"deduplicated"` in an `ingest:batch` slot) are both on the wire
//! since PR 8; [`ingest_ack_from`] reads either. Every id, from either side,
//! must be a non-negative integer that fits `u32` — `4294967297` is refused,
//! never served as id 1. Operator-only bodies (`/v1/stats`, `/v1/trace`,
//! `/admin/refit`) have no decoder in product code and stay in
//! [`crate::server`].
//!
//! A decoder of a *request* answers `Err(&'static str)`, the 400 message; a
//! decoder of an *answer* answers [`BackendError::Transport`] for anything a
//! well-behaved peer would not have sent.

use crate::http1::{Response, StatusCode};
use crate::transport::{BatchAnswer, IngestBatchAnswer, IngestEntry, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{validate_key, IngestAck, RequestOptions, RerankMode, ServeError, SlotAnswer};
use std::sync::Arc;
use tinyjson::{obj, Value};

/// Path prefix of the single-recommend route; the user id follows it.
pub const RECOMMEND: &str = "/v1/recommend/";

/// Why a request was refused: the 400 body's message.
type Refusal = &'static str;

fn transport(msg: impl Into<String>) -> BackendError {
    BackendError::Transport(msg.into())
}

/// The id rule: `None` when `v` is not a non-negative integer, `Err(i)` when
/// it is one that does not fit the id type.
fn id(v: &Value) -> Option<Result<u32, u64>> {
    v.as_u64().map(|i| u32::try_from(i).map_err(|_| i))
}

/// An id a request must carry.
fn required_id(v: &Value, refusal: Refusal) -> Result<u32, Refusal> {
    id(v).and_then(Result::ok).ok_or(refusal)
}

/// An id a peer may have sent: `None` when `v` is not an integer.
fn peer_id(v: &Value) -> Result<Option<u32>, BackendError> {
    id(v)
        .map(|fit| fit.map_err(|i| transport(format!("peer sent out-of-range id {i}"))))
        .transpose()
}

fn peer_ids(v: &Value, what: &str) -> Result<Vec<u32>, BackendError> {
    v.as_array()
        .ok_or_else(|| transport(format!("missing {what} array")))?
        .iter()
        .map(|i| peer_id(i)?.ok_or_else(|| transport(format!("non-integer {what} id"))))
        .collect()
}

fn id_array(ids: impl Iterator<Item = u32>) -> Value {
    Value::Array(ids.map(Value::from).collect())
}

/// The θ rule, for both spellings: present means finite and in [0, 1].
fn checked_theta(t: Option<f64>) -> Result<f64, Refusal> {
    t.filter(|t| t.is_finite() && (0.0..=1.0).contains(t))
        .ok_or("theta must be a number in [0, 1]")
}

/// The re-ranker rule, for both spellings.
fn checked_rerank(token: Option<&str>) -> Result<RerankMode, Refusal> {
    token
        .and_then(RerankMode::parse)
        .ok_or("rerank must be one of pra, rbt, 5d")
}

/// A parsed `GET /v1/recommend/{user}?…` request line.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendQuery {
    /// The path's user id.
    pub user: u32,
    /// `?n=`: show only a prefix of the served list.
    pub take: Option<usize>,
    /// The per-request overrides the query string carried.
    pub opts: RequestOptions,
}

impl RecommendQuery {
    /// Parse what follows [`RECOMMEND`] in the path, and the query string.
    /// `exclude=` tolerates empty segments, so a bare `exclude=` means none.
    pub fn parse(user_part: &str, query: Option<&str>) -> Result<RecommendQuery, Refusal> {
        let user = user_part
            .parse::<u32>()
            .map_err(|_| "user id must be an integer")?;
        let mut take = None;
        let mut opts = RequestOptions::default();
        for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
            match pair.split_once('=') {
                Some(("n", v)) => take = Some(v.parse().map_err(|_| "n must be an integer")?),
                Some(("theta", v)) => opts.theta = Some(checked_theta(v.parse().ok())?),
                Some(("exclude", v)) => opts.set_exclude(
                    v.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| "exclude must be a comma-separated list of u32 item ids")?,
                ),
                Some(("rerank", v)) => opts.rerank = Some(checked_rerank(Some(v))?),
                _ => return Err("unknown query parameter"),
            }
        }
        Ok(RecommendQuery { user, take, opts })
    }
}

/// The request target [`RecommendQuery::parse`] reads back. θ uses Rust's
/// shortest-round-trip float formatting, so the peer recovers the exact bits
/// and serves the list an in-process override at that θ would get.
pub fn recommend_path(user: UserId, opts: &RequestOptions) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = opts.theta {
        parts.push(format!("theta={t}"));
    }
    if !opts.exclude.is_empty() {
        let ids: Vec<String> = opts.exclude.iter().map(u32::to_string).collect();
        parts.push(format!("exclude={}", ids.join(",")));
    }
    if let Some(m) = opts.rerank {
        parts.push(format!("rerank={}", m.as_str()));
    }
    let query = if parts.is_empty() { "" } else { "?" };
    format!("{RECOMMEND}{}{query}{}", user.0, parts.join("&"))
}

/// The 200 body of a single recommend: `items` is the served prefix.
pub fn recommend_answer(user: u32, generation: u64, items: &[ItemId]) -> Value {
    obj! {
        "user" => user,
        "generation" => generation,
        "items" => id_array(items.iter().map(|i| i.0)),
    }
}

/// Decode [`recommend_answer`].
pub fn recommend_answer_from(v: &Value) -> SingleAnswer {
    let generation = generation_from(v)?;
    Ok((Arc::new(items_from(&v["items"])?), generation))
}

fn items_from(v: &Value) -> Result<Vec<ItemId>, BackendError> {
    Ok(peer_ids(v, "items")?.into_iter().map(ItemId).collect())
}

/// The `recommend:batch` request body: default options send `users` alone.
pub fn batch_request(users: &[UserId], opts: &RequestOptions) -> Value {
    let mut body = obj! { "users" => id_array(users.iter().map(|u| u.0)) };
    if let Some(t) = opts.theta {
        body.insert("theta", Value::from(t));
    }
    if !opts.exclude.is_empty() {
        body.insert("exclude", id_array(opts.exclude.iter().copied()));
    }
    if let Some(m) = opts.rerank {
        body.insert("rerank", Value::from(m.as_str()));
    }
    body
}

/// Decode [`batch_request`]; an absent option field leaves its default.
pub fn batch_request_from(v: &Value) -> Result<(Vec<UserId>, RequestOptions), Refusal> {
    let users = v["users"]
        .as_array()
        .ok_or("body must be {\"users\":[...]}")?
        .iter()
        .map(|u| required_id(u, "user ids must be u32 integers").map(UserId))
        .collect::<Result<_, _>>()?;
    let mut opts = RequestOptions::default();
    if !v["theta"].is_null() {
        opts.theta = Some(checked_theta(v["theta"].as_f64())?);
    }
    if !v["exclude"].is_null() {
        const REFUSAL: Refusal = "exclude must be an array of u32 item ids";
        let ids = v["exclude"].as_array().ok_or(REFUSAL)?;
        opts.set_exclude(
            ids.iter()
                .map(|i| required_id(i, REFUSAL))
                .collect::<Result<_, _>>()?,
        );
    }
    if !v["rerank"].is_null() {
        opts.rerank = Some(checked_rerank(v["rerank"].as_str())?);
    }
    Ok((users, opts))
}

/// The `recommend:batch` 200 body: `answers[k]` is `users[k]`'s slot. Takes
/// the answers by value, so each list is released as its slot is encoded
/// and a whole-population batch never holds every list beside every slot.
pub fn batch_answer(users: &[UserId], answers: Vec<SlotAnswer>, generation: u64) -> Value {
    let results = users
        .iter()
        .zip(answers)
        .map(|(u, answer)| match answer {
            Ok(list) => obj! { "user" => u.0, "items" => id_array(list.iter().map(|i| i.0)) },
            Err(e) => serve_error(&e),
        })
        .collect();
    obj! { "generation" => generation, "results" => Value::Array(results) }
}

/// Decode [`batch_answer`] for a request of `n` users.
pub fn batch_answer_from(v: &Value, n: usize) -> BatchAnswer {
    let generation = generation_from(v)?;
    let slots = slots_from(v, n, "users")?
        .iter()
        .map(|slot| match serve_error_from(slot)? {
            Some(e) => Ok(Err(e)),
            None => Ok(Ok(Arc::new(items_from(&slot["items"])?))),
        })
        .collect::<Result<_, BackendError>>()?;
    Ok((slots, generation))
}

/// The `results` array of a batch answer, refused unless it has `n` slots.
fn slots_from<'v>(v: &'v Value, n: usize, what: &str) -> Result<&'v [Value], BackendError> {
    let slots = v["results"]
        .as_array()
        .ok_or_else(|| transport("missing results"))?;
    if slots.len() != n {
        return Err(transport(format!(
            "peer answered {} slots for {n} {what}",
            slots.len()
        )));
    }
    Ok(slots)
}

/// One ingest: the `/v1/ingest` body (a remote caller sends its key as the
/// `Idempotency-Key` header and passes `None` here) and each `ingest:batch`
/// entry (key in the row).
pub fn ingest_request(key: Option<&str>, user: UserId, item: ItemId, rating: f32) -> Value {
    let mut row = obj! { "user" => user.0, "item" => item.0, "rating" => rating as f64 };
    if let Some(k) = key {
        row.insert("key", Value::from(k));
    }
    row
}

/// Decode [`ingest_request`]. `header_key` is the request's
/// `Idempotency-Key`, which wins over a body `"key"`. A key the WAL decoder
/// would refuse on replay, or one carrying CR/LF or control bytes that could
/// smuggle headers into a router's fan-out, is refused here, at ingress, so
/// it is never acknowledged.
pub fn ingest_request_from(v: &Value, header_key: Option<&str>) -> Result<IngestEntry, Refusal> {
    let user = required_id(&v["user"], "user must be a u32 integer")?;
    let item = required_id(&v["item"], "item must be a u32 integer")?;
    let rating = v["rating"].as_f64().ok_or("rating must be a number")?;
    let key = match (header_key, &v["key"]) {
        (Some(k), _) => Some(k.to_string()),
        (None, Value::Null) => None,
        (None, Value::String(s)) if !s.is_empty() => Some(s.clone()),
        _ => return Err("key must be a non-empty string"),
    };
    if let Some(k) = &key {
        validate_key(k)?;
    }
    Ok(IngestEntry {
        key,
        user: UserId(user),
        item: ItemId(item),
        rating: rating as f32,
    })
}

/// The `/v1/ingest` 200 body. Unkeyed requests get the byte-exact
/// `{"ok":true}` the determinism suites pin.
pub fn ingest_ack(keyed: bool, ack: IngestAck) -> Value {
    let mut body = obj! { "ok" => true };
    if keyed {
        body.insert("deduplicated", Value::from(ack == IngestAck::Deduplicated));
    }
    body
}

/// Decode an acknowledgement in either spelling: [`ingest_ack`]'s
/// `"deduplicated":true` or an `ingest:batch` slot's
/// `"status":"deduplicated"`.
pub fn ingest_ack_from(v: &Value) -> IngestAck {
    if v["deduplicated"].as_bool() == Some(true) || v["status"].as_str() == Some("deduplicated") {
        IngestAck::Deduplicated
    } else {
        IngestAck::Applied
    }
}

/// The `ingest:batch` request body.
pub fn ingest_batch_request(entries: &[IngestEntry]) -> Value {
    let rows = entries
        .iter()
        .map(|e| ingest_request(e.key.as_deref(), e.user, e.item, e.rating))
        .collect();
    obj! { "entries" => Value::Array(rows) }
}

/// Decode [`ingest_batch_request`]; every entry passes the single-ingest
/// rules.
pub fn ingest_batch_request_from(v: &Value) -> Result<Vec<IngestEntry>, Refusal> {
    v["entries"]
        .as_array()
        .ok_or("body must be {\"entries\":[...]}")?
        .iter()
        .map(|entry| ingest_request_from(entry, None))
        .collect()
}

/// The `ingest:batch` 200 body: a rejected entry answers in its slot and
/// does not fail its companions.
pub fn ingest_batch_answer(slots: &[Result<IngestAck, ServeError>]) -> Value {
    let results = slots
        .iter()
        .map(|slot| match slot {
            Ok(IngestAck::Applied) => obj! { "ok" => true },
            Ok(IngestAck::Deduplicated) => obj! { "ok" => true, "status" => "deduplicated" },
            Err(e) => serve_error(e),
        })
        .collect();
    obj! { "results" => Value::Array(results) }
}

/// Decode [`ingest_batch_answer`] for a request of `n` entries.
pub fn ingest_batch_answer_from(v: &Value, n: usize) -> IngestBatchAnswer {
    slots_from(v, n, "entries")?
        .iter()
        .map(|slot| Ok(serve_error_from(slot)?.map_or_else(|| Ok(ingest_ack_from(slot)), Err)))
        .collect()
}

/// The `/v1/window` body; `None` (no observability attached, or the node is
/// itself a router) is `{"window":null}`.
pub fn window(w: Option<&WindowWire>) -> Value {
    let window = w.map_or(Value::Null, |w| {
        obj! {
            "n_items" => w.n_items,
            "lists" => w.lists,
            "items" => w.items,
            "novelty_microbits" => w.novelty_microbits,
            "tail_hits" => w.tail_hits,
            "distinct" => id_array(w.distinct.iter().copied()),
        }
    });
    obj! { "window" => window }
}

/// Decode [`window`].
pub fn window_from(v: &Value) -> Result<Option<WindowWire>, BackendError> {
    let w = &v["window"];
    if w.is_null() {
        return Ok(None);
    }
    let field = |name: &str| {
        w[name]
            .as_u64()
            .ok_or_else(|| transport(format!("window missing {name}")))
    };
    Ok(Some(WindowWire {
        n_items: field("n_items")? as usize,
        lists: field("lists")?,
        items: field("items")?,
        novelty_microbits: field("novelty_microbits")?,
        tail_hits: field("tail_hits")?,
        distinct: peer_ids(&w["distinct"], "distinct")?,
    }))
}

/// The part of the `/v1/healthz` body a peer reads.
pub fn healthz(generation: u64) -> Value {
    obj! { "ok" => true, "generation" => generation }
}

/// The `generation` every recommend answer and [`healthz`] carries.
pub fn generation_from(v: &Value) -> Result<u64, BackendError> {
    v["generation"]
        .as_u64()
        .ok_or_else(|| transport("missing generation"))
}

/// A plain error answer: a refused request, an unknown route, a framing
/// violation.
pub fn error(status: u16, message: &str) -> (u16, Value) {
    (status, obj! { "error" => message })
}

/// A typed rejection as an error body or a batch slot: prose for people, one
/// machine-readable field [`error_from`] maps back without reading prose.
pub fn serve_error(e: &ServeError) -> Value {
    let mut body = obj! { "error" => e.to_string() };
    match e {
        ServeError::UnknownUser(u) => body.insert("unknown_user", Value::from(u.0)),
        ServeError::UnknownItem(i) => body.insert("unknown_item", Value::from(i.0)),
        ServeError::Durability => body.insert("durability", Value::from(true)),
    }
    body
}

/// Decode [`serve_error`], if `v` is one.
fn serve_error_from(v: &Value) -> Result<Option<ServeError>, BackendError> {
    Ok(if let Some(u) = peer_id(&v["unknown_user"])? {
        Some(ServeError::UnknownUser(UserId(u)))
    } else if let Some(i) = peer_id(&v["unknown_item"])? {
        Some(ServeError::UnknownItem(ItemId(i)))
    } else if v["durability"].as_bool() == Some(true) {
        Some(ServeError::Durability)
    } else {
        None
    })
}

/// The status and body a failed backend call answers with. A durability
/// failure is a node fault (502, retry-safe), not a bad id (404); a failed
/// θ-band names itself in `"band"` so an operator need not read it out of
/// prose.
pub fn error_reply(e: BackendError) -> (u16, Value) {
    match e {
        BackendError::Serve(ServeError::Durability) => (
            StatusCode::BAD_GATEWAY,
            serve_error(&ServeError::Durability),
        ),
        BackendError::Serve(e) => (StatusCode::NOT_FOUND, serve_error(&e)),
        BackendError::Transport(msg) => error(StatusCode::BAD_GATEWAY, &msg),
        BackendError::Band { band, message } => (
            StatusCode::BAD_GATEWAY,
            obj! { "error" => format!("band {band}: {message}"), "band" => band },
        ),
    }
}

/// A handler's answer: 200 with the encoded body, or [`error_reply`].
pub fn reply(answer: Result<Value, BackendError>) -> (u16, Value) {
    answer.map_or_else(error_reply, |body| (StatusCode::OK, body))
}

/// Decode a non-200 answer: the typed rejection its body carries, else a
/// transport error with the status and whatever prose came along.
pub fn error_from(resp: &Response) -> BackendError {
    let Ok(v) = peer_json(&resp.body) else {
        return transport(format!("peer error {}", resp.status));
    };
    match serve_error_from(&v) {
        Ok(Some(e)) => BackendError::Serve(e),
        Ok(None) => transport(match v["error"].as_str() {
            Some(msg) => format!("peer error {}: {msg}", resp.status),
            None => format!("peer error {}", resp.status),
        }),
        Err(e) => e,
    }
}

/// A peer's answer as JSON: [`error_from`] for anything but a 200.
pub fn answer_json(resp: &Response) -> Result<Value, BackendError> {
    if resp.status != StatusCode::OK {
        return Err(error_from(resp));
    }
    peer_json(&resp.body)
}

fn peer_json(body: &[u8]) -> Result<Value, BackendError> {
    let text = std::str::from_utf8(body).map_err(|_| transport("peer sent non-UTF-8 body"))?;
    tinyjson::from_str(text).map_err(|e| transport(format!("peer sent invalid JSON: {e}")))
}

/// A request body as JSON.
pub fn request_json(body: &[u8]) -> Result<Value, Refusal> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    tinyjson::from_str(text).map_err(|_| "body is not valid JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A body as the other side's parser sees it: through the encoder's
    /// text and back.
    fn sent(v: Value) -> Value {
        tinyjson::from_str(&tinyjson::to_string(&v)).unwrap()
    }

    fn response(status: u16, body: &Value) -> Response {
        Response {
            status,
            keep_alive: true,
            body: tinyjson::to_string(body).into_bytes(),
        }
    }

    fn ids() -> impl Strategy<Value = u32> {
        // The ends of the id range as often as its middle.
        (0u32..4, 0u32..=u32::MAX).prop_map(|(end, mid)| match end {
            0 => 0,
            1 => u32::MAX,
            _ => mid,
        })
    }

    /// Integers `f64` (the JSON number model) holds exactly.
    fn counts() -> impl Strategy<Value = u64> {
        0u64..(1 << 53)
    }

    fn options() -> impl Strategy<Value = RequestOptions> {
        let modes = [RerankMode::Pra, RerankMode::Rbt, RerankMode::FiveD];
        (
            0u32..5,
            0.0f64..1.0,
            collection::vec(0u32..12, 0..8),
            0usize..4,
        )
            .prop_map(move |(kind, t, exclude, mode)| {
                let mut opts = RequestOptions {
                    theta: [None, Some(0.0), Some(1.0), Some(t), Some(t)][kind as usize],
                    rerank: modes.get(mode).copied(),
                    ..RequestOptions::default()
                };
                // Eight draws from twelve ids: duplicates are the usual case.
                opts.set_exclude(exclude);
                opts
            })
    }

    fn serve_errors() -> impl Strategy<Value = ServeError> {
        (0u32..3, ids()).prop_map(|(kind, id)| match kind {
            0 => ServeError::UnknownUser(UserId(id)),
            1 => ServeError::UnknownItem(ItemId(id)),
            _ => ServeError::Durability,
        })
    }

    /// Visible ASCII, quotes and backslashes included.
    fn keys() -> impl Strategy<Value = Option<String>> {
        collection::vec(0x21u32..0x7F, 0..12).prop_map(|chars| {
            let key: String = chars.into_iter().filter_map(char::from_u32).collect();
            Some(key).filter(|k| !k.is_empty())
        })
    }

    fn entries() -> impl Strategy<Value = Vec<IngestEntry>> {
        let entry = (keys(), ids(), ids(), -5.0f64..5.0).prop_map(|(key, user, item, rating)| {
            IngestEntry {
                key,
                user: UserId(user),
                item: ItemId(item),
                rating: rating as f32,
            }
        });
        collection::vec(entry, 0..5)
    }

    proptest! {
        #[test]
        fn options_round_trip_in_both_spellings(
            user in ids(),
            users in collection::vec(ids(), 0..5),
            opts in options(),
        ) {
            let path = recommend_path(UserId(user), &opts);
            let tail = path.strip_prefix(RECOMMEND).unwrap();
            let (user_part, query) = match tail.split_once('?') {
                Some((user_part, query)) => (user_part, Some(query)),
                None => (tail, None),
            };
            prop_assert_eq!(query.is_none(), opts.is_default());
            prop_assert_eq!(
                RecommendQuery::parse(user_part, query),
                Ok(RecommendQuery { user, take: None, opts: opts.clone() })
            );
            let users: Vec<UserId> = users.into_iter().map(UserId).collect();
            let body = sent(batch_request(&users, &opts));
            prop_assert_eq!(body.as_object().unwrap().len(), 1 + [
                opts.theta.is_some(), !opts.exclude.is_empty(), opts.rerank.is_some(),
            ].iter().filter(|&&set| set).count());
            prop_assert_eq!(batch_request_from(&body), Ok((users, opts)));
        }

        #[test]
        fn recommend_answers_round_trip(
            user in ids(),
            generation in counts(),
            lists in collection::vec((collection::vec(ids(), 0..5), 0u32..3, serve_errors()), 0..5),
        ) {
            let slots: Vec<SlotAnswer> = lists
                .into_iter()
                .map(|(list, fails, e)| match fails {
                    0 => Err(e),
                    _ => Ok(Arc::new(list.into_iter().map(ItemId).collect())),
                })
                .collect();
            let users: Vec<UserId> = (0..slots.len() as u32).map(UserId).collect();
            let body = sent(batch_answer(&users, slots.clone(), generation));
            prop_assert_eq!(
                batch_answer_from(&body, slots.len() + 1),
                Err(transport(format!("peer answered {0} slots for {1} users", slots.len(), slots.len() + 1)))
            );
            for list in slots.iter().flatten() {
                let body = sent(recommend_answer(user, generation, list));
                prop_assert_eq!(recommend_answer_from(&body), Ok((Arc::clone(list), generation)));
            }
            prop_assert_eq!(batch_answer_from(&body, slots.len()), Ok((slots, generation)));
            prop_assert_eq!(generation_from(&sent(healthz(generation))), Ok(generation));
        }

        #[test]
        fn ingests_round_trip(
            entries in entries(),
            header in keys(),
            acks in collection::vec((0u32..3, serve_errors()), 0..5),
        ) {
            let body = sent(ingest_batch_request(&entries));
            prop_assert_eq!(ingest_batch_request_from(&body), Ok(entries.clone()));
            for e in entries {
                // What a `RemoteShard` sends: the key rides in the header.
                let body = sent(ingest_request(None, e.user, e.item, e.rating));
                prop_assert_eq!(ingest_request_from(&body, e.key.as_deref()), Ok(e.clone()));
                // A header key wins over the body's.
                let body = sent(ingest_request(e.key.as_deref(), e.user, e.item, e.rating));
                let key = header.clone().or(e.key.clone());
                prop_assert_eq!(ingest_request_from(&body, header.as_deref()), Ok(IngestEntry { key, ..e }));
            }
            let slots: Vec<Result<IngestAck, ServeError>> = acks
                .into_iter()
                .map(|(kind, e)| match kind {
                    0 => Err(e),
                    1 => Ok(IngestAck::Applied),
                    _ => Ok(IngestAck::Deduplicated),
                })
                .collect();
            // Both dedup spellings, and the unkeyed body that has neither.
            for ack in slots.iter().flatten() {
                prop_assert_eq!(ingest_ack_from(&sent(ingest_ack(true, *ack))), *ack);
            }
            prop_assert_eq!(tinyjson::to_string(&ingest_ack(false, IngestAck::Applied)), r#"{"ok":true}"#);
            prop_assert_eq!(ingest_ack_from(&ingest_ack(false, IngestAck::Applied)), IngestAck::Applied);
            let body = sent(ingest_batch_answer(&slots));
            prop_assert!(ingest_batch_answer_from(&body, slots.len() + 1).is_err());
            prop_assert_eq!(ingest_batch_answer_from(&body, slots.len()), Ok(slots));
        }

        #[test]
        fn windows_round_trip(
            sums in (counts(), counts(), counts(), counts()),
            n_items in 0usize..1_000_000,
            distinct in collection::vec(ids(), 0..5),
        ) {
            let (lists, items, novelty_microbits, tail_hits) = sums;
            let w = WindowWire { n_items, lists, items, novelty_microbits, tail_hits, distinct };
            prop_assert_eq!(window_from(&sent(window(Some(&w)))), Ok(Some(w)));
            prop_assert_eq!(window_from(&sent(window(None))), Ok(None));
        }

        /// Every typed rejection survives the error body on every endpoint
        /// (there is one decoder); what is written for operators comes back
        /// as a transport error carrying the status and the prose.
        #[test]
        fn error_bodies_round_trip(e in serve_errors(), band in 0usize..64, prose in keys()) {
            let (status, body) = error_reply(BackendError::Serve(e));
            let want = if e == ServeError::Durability { StatusCode::BAD_GATEWAY } else { StatusCode::NOT_FOUND };
            prop_assert_eq!(status, want);
            prop_assert_eq!(error_from(&response(status, &body)), BackendError::Serve(e));
            prop_assert_eq!(answer_json(&response(status, &body)), Err(BackendError::Serve(e)));

            let message = prose.unwrap_or_default();
            let (status, body) = reply(Err(transport(message.clone())));
            prop_assert_eq!(
                error_from(&response(status, &body)),
                transport(format!("peer error 502: {message}"))
            );
            let (status, body) = error_reply(BackendError::Band { band, message: message.clone() });
            prop_assert_eq!(
                error_from(&response(status, &body)),
                transport(format!("peer error 502: band {band}: {message}"))
            );
            let (status, body) = error(StatusCode::BAD_REQUEST, &message);
            prop_assert_eq!(
                error_from(&response(status, &body)),
                transport(format!("peer error 400: {message}"))
            );
        }
    }

    /// Every peer-supplied id is range-checked, one field at a time.
    #[test]
    fn out_of_range_ids_from_a_peer_fail_closed() {
        // ID = 2^32 + 1, which `as u32` would have served as id 1.
        let fill = |text: &str| text.replace("ID", "4294967297");
        let json = |text: &str| tinyjson::from_str(&fill(text)).unwrap();
        let error_body = |text: &str| error_from(&response(404, &json(text)));
        let decodes: [(&str, Result<(), BackendError>); 8] = [
            ("items", items_from(&json("[3,ID]")).map(drop)),
            (
                "error body unknown_user",
                Err(error_body(r#"{"error":"x","unknown_user":ID}"#)),
            ),
            (
                "error body unknown_item",
                Err(error_body(r#"{"error":"x","unknown_item":ID}"#)),
            ),
            (
                "batch slot unknown_user",
                batch_answer_from(
                    &json(r#"{"generation":0,"results":[{"items":[1]},{"unknown_user":ID}]}"#),
                    2,
                )
                .map(drop),
            ),
            (
                "batch slot items",
                batch_answer_from(&json(r#"{"generation":0,"results":[{"items":[ID]}]}"#), 1)
                    .map(drop),
            ),
            (
                "ingest slot unknown_user",
                ingest_batch_answer_from(&json(r#"{"results":[{"unknown_user":ID}]}"#), 1)
                    .map(drop),
            ),
            (
                "ingest slot unknown_item",
                ingest_batch_answer_from(&json(r#"{"results":[{"unknown_item":ID}]}"#), 1)
                    .map(drop),
            ),
            (
                "window distinct",
                window_from(&json(
                    r#"{"window":{"n_items":9,"lists":1,"items":2,"novelty_microbits":3,"tail_hits":0,"distinct":[4,ID]}}"#,
                ))
                .map(drop),
            ),
        ];
        for (field, outcome) in decodes {
            match outcome {
                Err(BackendError::Transport(msg)) => {
                    assert!(msg.contains("out-of-range"), "{field}: {msg}")
                }
                other => panic!("{field}: expected a transport error, got {other:?}"),
            }
        }
        // The largest id that fits still decodes.
        assert_eq!(
            items_from(&json("[4294967295]")).unwrap(),
            [ItemId(u32::MAX)]
        );
    }

    const KEYS: [&str; 26] = [
        "user",
        "users",
        "item",
        "items",
        "rating",
        "key",
        "entries",
        "results",
        "generation",
        "theta",
        "exclude",
        "rerank",
        "window",
        "n_items",
        "lists",
        "novelty_microbits",
        "tail_hits",
        "distinct",
        "unknown_user",
        "unknown_item",
        "durability",
        "deduplicated",
        "status",
        "error",
        "ok",
        "band",
    ];
    /// No member is the low 32 bits of another, so an id that was cut down
    /// to fit cannot pass for one that was sent.
    const NUMBERS: [f64; 11] = [
        0.0,
        1.0,
        7.0,
        0.5,
        -1.0,
        4294967295.0,
        4294967301.0,
        1099511627787.0,
        1e300,
        f64::NAN,
        f64::INFINITY,
    ];
    const STRINGS: [&str; 7] = ["", "k1", "deduplicated", "pra", "5d", "two words", "a\r\nb"];

    type Tape = std::vec::IntoIter<u64>;

    /// Any document over the protocol's vocabulary, read off `tape`.
    fn arbitrary(tape: &mut Tape, depth: u32) -> Value {
        let pick = tape.next().unwrap_or(0);
        let n = pick / 64;
        match pick % if depth == 0 { 4 } else { 6 } {
            0 => Value::Null,
            1 => Value::Bool(n.is_multiple_of(2)),
            2 => Value::Number(NUMBERS[n as usize % NUMBERS.len()]),
            3 => Value::String(STRINGS[n as usize % STRINGS.len()].to_string()),
            4 => Value::Array((0..n % 4).map(|_| arbitrary(tape, depth - 1)).collect()),
            _ => {
                let key = |tape: &mut Tape| KEYS[tape.next().unwrap_or(0) as usize % KEYS.len()];
                let members =
                    (0..n % 4).map(|_| (key(tape).to_string(), arbitrary(tape, depth - 1)));
                Value::Object(members.collect())
            }
        }
    }

    /// Swap some of `v`'s nodes: one in eight for an arbitrary document, half
    /// the numbers for other numbers — so most of a well-formed body stays
    /// and its decoder is reached in depth.
    fn mutate(v: &mut Value, tape: &mut Tape) {
        let pick = tape.next().unwrap_or(1);
        match v {
            _ if pick.is_multiple_of(8) => *v = arbitrary(tape, 2),
            Value::Number(n) if pick.is_multiple_of(2) => {
                *n = NUMBERS[(pick / 64) as usize % NUMBERS.len()]
            }
            Value::Array(a) => a.iter_mut().for_each(|v| mutate(v, tape)),
            Value::Object(o) => o.iter_mut().for_each(|(_, v)| mutate(v, tape)),
            _ => {}
        }
    }

    /// One well-formed body of every shape.
    fn well_formed() -> Vec<Value> {
        let users = [UserId(1), UserId(7)];
        let list = Arc::new(vec![ItemId(0), ItemId(7), ItemId(u32::MAX)]);
        let mut opts = RequestOptions {
            theta: Some(0.5),
            rerank: Some(RerankMode::Pra),
            ..RequestOptions::default()
        };
        opts.set_exclude(vec![1, 7]);
        let entry = |key: Option<&str>| IngestEntry {
            key: key.map(str::to_string),
            user: UserId(1),
            item: ItemId(7),
            rating: 0.5,
        };
        let window_wire = WindowWire {
            n_items: 7,
            lists: 1,
            items: 7,
            novelty_microbits: 1,
            tail_hits: 0,
            distinct: vec![0, 1, 7],
        };
        let rejected = [
            ServeError::UnknownUser(UserId(7)),
            ServeError::UnknownItem(ItemId(1)),
            ServeError::Durability,
        ];
        let mut acks = vec![Ok(IngestAck::Applied), Ok(IngestAck::Deduplicated)];
        acks.extend(rejected.map(Err));
        let mut bodies = vec![
            recommend_answer(7, 1, &list),
            batch_request(&users, &opts),
            batch_answer(&users, vec![Ok(list), Err(rejected[0])], 1),
            ingest_request(Some("k1"), UserId(1), ItemId(7), 0.5),
            ingest_batch_request(&[entry(None), entry(Some("k1"))]),
            ingest_ack(true, IngestAck::Deduplicated),
            ingest_batch_answer(&acks),
            window(Some(&window_wire)),
            healthz(7),
        ];
        bodies.extend(rejected.map(|e| error_reply(BackendError::Serve(e)).1));
        bodies
    }

    fn numbers(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Number(n) => out.push(*n),
            Value::Array(a) => a.iter().for_each(|v| numbers(v, out)),
            Value::Object(o) => o.iter().for_each(|(_, v)| numbers(v, out)),
            _ => {}
        }
    }

    proptest! {
        /// Every decoder, on a damaged body of any shape: `Ok` or `Err`, never
        /// a panic, and every id it yields is a number the document holds (so
        /// none was cut down from 2³² or above).
        #[test]
        fn decoders_never_panic_and_never_invent_an_id(tape in collection::vec(0u64..u64::MAX, 96..97)) {
            let mut tape = tape.into_iter();
            let bodies = well_formed();
            let mut v = bodies[tape.next().unwrap() as usize % bodies.len()].clone();
            mutate(&mut v, &mut tape);
            let v = &v;
            let mut sent = Vec::new();
            numbers(v, &mut sent);
            let n = v["results"].as_array().map_or(0, Vec::len);

            let mut yielded: Vec<u32> = Vec::new();
            let mut serve = |e: &ServeError| match e {
                ServeError::UnknownUser(u) => yielded.push(u.0),
                ServeError::UnknownItem(i) => yielded.push(i.0),
                ServeError::Durability => {}
            };
            let mut listed: Vec<u32> = Vec::new();
            if let Ok((list, _)) = recommend_answer_from(v) {
                listed.extend(list.iter().map(|i| i.0));
            }
            if let Ok((slots, _)) = batch_answer_from(v, n) {
                for slot in slots {
                    match slot {
                        Ok(list) => listed.extend(list.iter().map(|i| i.0)),
                        Err(e) => serve(&e),
                    }
                }
            }
            if let Ok((users, opts)) = batch_request_from(v) {
                listed.extend(users.iter().map(|u| u.0));
                listed.extend(&opts.exclude);
                prop_assert!(opts.theta.is_none_or(|t| (0.0..=1.0).contains(&t)));
            }
            let singles = [ingest_request_from(v, None), ingest_request_from(v, Some("header-key"))];
            let batch = ingest_batch_request_from(v).unwrap_or_default();
            for e in singles.into_iter().flatten().chain(batch) {
                listed.extend([e.user.0, e.item.0]);
                prop_assert!(e.key.is_none_or(|k| validate_key(&k).is_ok()));
            }
            for slot in ingest_batch_answer_from(v, n).unwrap_or_default() {
                if let Err(e) = slot {
                    serve(&e);
                }
            }
            if let Ok(Some(w)) = window_from(v) {
                listed.extend(&w.distinct);
            }
            if let BackendError::Serve(e) = error_from(&response(404, v)) {
                serve(&e);
            }
            let _ = (generation_from(v), ingest_ack_from(v), answer_json(&response(200, v)));
            for id in yielded.into_iter().chain(listed) {
                prop_assert!(sent.contains(&f64::from(id)), "id {id} was never sent: {v}");
            }
        }

        /// The query-string spelling, on any string of its own tokens.
        #[test]
        fn queries_never_panic_and_never_pass_a_bad_theta(picks in collection::vec(0usize..1000, 0..8)) {
            const TOKENS: [&str; 18] = [
                "n", "theta", "exclude", "rerank", "bogus", "=", "=", "&", ",", "", "1", "0.5",
                "4294967296", "-1", "NaN", "inf", "1e999", "pra",
            ];
            let query: String = picks.iter().map(|&p| TOKENS[p % TOKENS.len()]).collect();
            for user_part in ["7", "4294967296", "", "x"] {
                if let Ok(q) = RecommendQuery::parse(user_part, Some(&query)) {
                    prop_assert_eq!(q.user, 7);
                    prop_assert!(q.opts.theta.is_none_or(|t| (0.0..=1.0).contains(&t)), "{query}");
                    prop_assert!(q.opts.exclude.iter().all(|i| query.contains(&i.to_string())));
                }
            }
        }
    }
}
