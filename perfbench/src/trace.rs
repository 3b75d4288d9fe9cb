//! The traced run's instruments: request-scoped spans with parents, their
//! Chrome `trace_event` export, and the in-process replay that times each
//! layer's public entry point on a seeded sample of requests.
//!
//! The replay executes a request the way a shard set would — parse, route,
//! run the shard work (sequentially here, so the critical path of a
//! fan-out is the slowest shard), merge, render and frame the reply — under
//! child spans that carry the request's id.  Its replies are kept so the
//! caller can compare them with what the server answers for the same
//! commands.

use leco_bench::report::Json;
use leco_columnar::QueryStats;
use leco_ingest::{Agg as LiveAgg, ScanSpec};
use leco_scan::Scanner;
use leco_server::protocol::{frame_into, ok_response, parse_request, Request, ScanAgg};
use leco_server::shard::ShardScanPartial;
use leco_server::{shard_for_key, ShardSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Work-stealing threads a shard uses per scan or multi-get (the server
/// default).
pub const SHARD_THREADS: usize = 2;

/// One completed span.  `parent` is 0 for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Enclosing span, 0 for none.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// What was measured.
    pub name: &'static str,
    /// Recording thread (client connection, or the replay).
    pub tid: u64,
    /// Start, [`leco_obs::epoch_ns`].
    pub start_ns: u64,
    /// End, [`leco_obs::epoch_ns`].
    pub end_ns: u64,
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Span {
    /// A root span of request `req`.
    pub fn root(req: u64, name: &'static str, tid: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: next_span_id(),
            parent: 0,
            req,
            name,
            tid,
            start_ns,
            end_ns,
        }
    }

    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans as a Chrome `trace_event` document (complete events, µs).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str("perfbench".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.dur_ns())),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(s.tid as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("req".into(), Json::Num(s.req as f64)),
                        ("span".into(), Json::Num(s.id as f64)),
                        ("parent".into(), Json::Num(s.parent as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
    ])
}

/// Layer times of one op over the replayed sample, ns per request.
#[derive(Debug, Default, Clone)]
pub struct OpLayers {
    /// `protocol::parse_request`.
    pub parse: Vec<u64>,
    /// The shard work: `Store::get` / `multi_get`, `Scanner::run` /
    /// `LiveTable::scan`, `LiveTable::put` — the slowest shard of a fan-out.
    pub shard: Vec<u64>,
    /// `ShardScanPartial::merge` + `finalize_groups` (scans only).
    pub merge: Vec<u64>,
    /// Reply render + `frame_into`.
    pub render: Vec<u64>,
}

/// What one replay pass measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per [`crate::load::Op`] (get, mget, scan, put).
    pub ops: [OpLayers; 4],
    /// Static-table scan time per [`crate::data::ScanClass`].
    pub scan_class: [Vec<u64>; 3],
    /// Live-table scan time.
    pub live_scan: Vec<u64>,
    /// Summed accounting of every static-table scan.
    pub columnar: QueryStats,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Rendered replies, in sample order.
    pub replies: Vec<String>,
}

impl Replay {
    /// The exact work counters of the static scans: chunks read, bytes
    /// read, row groups pruned, rows resolved by the model, boundary rows
    /// decoded, rows fully decoded.
    pub fn work_counts(&self) -> [u64; 6] {
        let s = &self.columnar;
        [
            s.chunks_read,
            s.io_bytes,
            s.row_groups_pruned,
            s.rows_skipped_by_model,
            s.boundary_rows_decoded,
            s.rows_decoded_full,
        ]
    }
}

struct Timer<'a> {
    spans: &'a mut Vec<Span>,
    req: u64,
    parent: u64,
}

impl Timer<'_> {
    /// Run `f` under a child span; returns its result and duration.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = leco_obs::epoch_ns();
        let out = f();
        let end = leco_obs::epoch_ns();
        self.spans.push(Span {
            id: next_span_id(),
            parent: self.parent,
            req: self.req,
            name,
            tid: 0,
            start_ns: start,
            end_ns: end,
        });
        (out, end - start)
    }
}

fn value_json(value: Option<Vec<u8>>) -> Vec<(String, Json)> {
    vec![
        ("found".into(), Json::Bool(value.is_some())),
        (
            "value".into(),
            value.map_or(Json::Null, |v| {
                Json::Str(String::from_utf8_lossy(&v).into_owned())
            }),
        ),
    ]
}

/// The scan class of a static-table query (by shape).
fn class_of(filter: &Option<(String, u64, u64)>, agg: &ScanAgg) -> usize {
    match (filter, agg) {
        (_, ScanAgg::GroupByAvg(..)) => crate::data::ScanClass::GroupBy as usize,
        (None, _) => crate::data::ScanClass::Full as usize,
        (Some(_), _) => crate::data::ScanClass::Narrow as usize,
    }
}

/// Replay `commands` in process against `set`, request ids starting at
/// `first_req`.  Any failure of a library call is an error: the sample is
/// made of requests the server answers with `200`.
pub fn replay(set: &ShardSet, commands: &[String], first_req: u64) -> std::io::Result<Replay> {
    let mut out = Replay::default();
    let n = set.shards.len();
    for (k, cmd) in commands.iter().enumerate() {
        let req = first_req + k as u64;
        let root_start = leco_obs::epoch_ns();
        let root_id = next_span_id();
        let mut timer = Timer {
            spans: &mut out.spans,
            req,
            parent: root_id,
        };
        let (parsed, parse_ns) =
            timer.time("protocol.parse_request", || parse_request(cmd.as_bytes()));
        let request = parsed.map_err(std::io::Error::other)?;
        let (op, root_name) = match &request {
            Request::Get { .. } => (0, "replay.get"),
            Request::MGet { .. } => (1, "replay.mget"),
            Request::Scan { .. } => (2, "replay.scan"),
            Request::Put { .. } => (3, "replay.put"),
            _ => return Err(std::io::Error::other(format!("cannot replay {cmd:?}"))),
        };
        let mut merge_ns = None;
        let (reply, shard_ns) = match request {
            Request::Get { key } => {
                let store = &set.shards[shard_for_key(&key, n)].store;
                let (value, ns) = timer.time("kvstore.get", || store.get(&key));
                (ok_response(value_json(value?)), ns)
            }
            Request::MGet { keys } => {
                let mut values: Vec<Json> = vec![Json::Null; keys.len()];
                let mut slowest = 0;
                for (s, shard) in set.shards.iter().enumerate() {
                    let (pos, mine): (Vec<usize>, Vec<Vec<u8>>) = keys
                        .iter()
                        .enumerate()
                        .filter(|(_, key)| shard_for_key(key, n) == s)
                        .map(|(p, key)| (p, key.clone()))
                        .unzip();
                    if mine.is_empty() {
                        continue;
                    }
                    let (found, ns) = timer.time("kvstore.multi_get", || {
                        shard.store.multi_get(&mine, SHARD_THREADS)
                    });
                    slowest = slowest.max(ns);
                    for ((p, key), hit) in pos.into_iter().zip(&mine).zip(found?) {
                        let value = hit.filter(|(k, _)| k == key).map(|(_, v)| v);
                        values[p] = Json::Obj(value_json(value));
                    }
                }
                (
                    ok_response(vec![("values".into(), Json::Arr(values))]),
                    slowest,
                )
            }
            Request::Scan { table, filter, agg } => {
                let mut partials = Vec::with_capacity(n);
                let mut slowest = 0;
                for shard in &set.shards {
                    let (partial, ns) = if let Some(live) = shard.live_tables.get(&table) {
                        let mut spec = ScanSpec::count();
                        if let Some((col, lo, hi)) = &filter {
                            spec = spec.filter(col, *lo, *hi);
                        }
                        spec.agg = match &agg {
                            ScanAgg::Count => LiveAgg::Count,
                            ScanAgg::Sum(col) => LiveAgg::Sum(col.clone()),
                            ScanAgg::GroupByAvg(id, val) => LiveAgg::GroupAvg {
                                id_col: id.clone(),
                                val_col: val.clone(),
                            },
                        };
                        let (res, ns) =
                            timer.time("ingest.live_scan", || live.scan(&spec, SHARD_THREADS));
                        let res = res?;
                        out.live_scan.push(ns);
                        let partial = ShardScanPartial {
                            rows_selected: res.rows_selected,
                            rows_scanned: res.rows_scanned,
                            morsels: 0,
                            sum: res.sum,
                            groups: res.group_partials,
                        };
                        (partial, ns)
                    } else {
                        let file = shard
                            .tables
                            .get(&table)
                            .ok_or_else(|| std::io::Error::other(format!("no table {table}")))?;
                        let mut scan = Scanner::new(file);
                        if let Some((col, lo, hi)) = &filter {
                            scan = scan.filter(col, *lo, *hi);
                        }
                        scan = match &agg {
                            ScanAgg::Count => scan,
                            ScanAgg::Sum(col) => scan.sum(col),
                            ScanAgg::GroupByAvg(id, val) => scan.group_by_avg(id, val),
                        };
                        let (res, ns) = timer.time("scan.run", || scan.run(SHARD_THREADS));
                        let res = res.map_err(std::io::Error::other)?;
                        add_stats(&mut out.columnar, &res.stats);
                        let partial = ShardScanPartial {
                            rows_selected: res.rows_selected,
                            rows_scanned: res.rows_scanned,
                            morsels: res.morsels,
                            sum: res.sum,
                            groups: res.group_partials,
                        };
                        (partial, ns)
                    };
                    slowest = slowest.max(ns);
                    partials.push(partial);
                }
                if !set.shards[0].live_tables.contains_key(&table) {
                    out.scan_class[class_of(&filter, &agg)].push(slowest);
                }
                let ((merged, groups), ns) = timer.time("server.merge", || {
                    let mut merged = ShardScanPartial::default();
                    for p in &partials {
                        merged.merge(p);
                    }
                    let groups = merged.finalize_groups();
                    (merged, groups)
                });
                merge_ns = Some(ns);
                let reply = ok_response(vec![
                    (
                        "rows_selected".into(),
                        Json::Num(merged.rows_selected as f64),
                    ),
                    ("rows_scanned".into(), Json::Num(merged.rows_scanned as f64)),
                    ("morsels".into(), Json::Num(merged.morsels as f64)),
                    ("shards".into(), Json::Num(n as f64)),
                    ("sum".into(), Json::Str(merged.sum.to_string())),
                    (
                        "groups".into(),
                        Json::Arr(
                            groups
                                .iter()
                                .map(|&(id, avg)| {
                                    Json::Arr(vec![Json::Num(id as f64), Json::Num(avg)])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                (reply, slowest)
            }
            Request::Put { table, row } => {
                let shard = &set.shards[shard_for_key(&row[0].to_le_bytes(), n)];
                let live = shard
                    .live_tables
                    .get(&table)
                    .ok_or_else(|| std::io::Error::other(format!("no live table {table}")))?;
                let (res, ns) = timer.time("ingest.put", || live.put(&row));
                res?;
                (ok_response(vec![("durable".into(), Json::Bool(true))]), ns)
            }
            _ => unreachable!("filtered above"),
        };
        let (rendered, render_ns) = timer.time("server.render", || {
            let text = reply.render();
            let mut wire = Vec::with_capacity(text.len() + 4);
            frame_into(&mut wire, text.as_bytes());
            std::hint::black_box(&wire);
            text
        });
        out.spans.push(Span {
            id: root_id,
            parent: 0,
            req,
            name: root_name,
            tid: 0,
            start_ns: root_start,
            end_ns: leco_obs::epoch_ns(),
        });
        let layers = &mut out.ops[op];
        layers.parse.push(parse_ns);
        layers.shard.push(shard_ns);
        layers.merge.extend(merge_ns);
        layers.render.push(render_ns);
        out.replies.push(rendered);
    }
    Ok(out)
}

fn add_stats(total: &mut QueryStats, s: &QueryStats) {
    total.io_bytes += s.io_bytes;
    total.io_seconds += s.io_seconds;
    total.cpu_seconds += s.cpu_seconds;
    total.chunks_read += s.chunks_read;
    total.row_groups_pruned += s.row_groups_pruned;
    total.rows_skipped_by_model += s.rows_skipped_by_model;
    total.boundary_rows_decoded += s.boundary_rows_decoded;
    total.rows_decoded_full += s.rows_decoded_full;
}

/// Is a reply to this query shape deterministic across replays (a read
/// of immutable data), so the in-process and served answers must agree?
pub fn stable_reply(cmd: &str) -> bool {
    !cmd.starts_with("PUT ") && !cmd.contains(crate::data::EVENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_carries_ids_and_parents() {
        let root = Span::root(7, "replay.get", 0, 1_000, 5_000);
        let child = Span {
            id: next_span_id(),
            parent: root.id,
            req: 7,
            name: "kvstore.get",
            tid: 0,
            start_ns: 2_000,
            end_ns: 3_500,
        };
        let doc = Json::parse(&chrome_trace(&[root, child]).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("kvstore.get"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(1.5));
        let args = e.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(Json::as_f64),
            Some(root.id as f64)
        );
        assert_eq!(args.get("req").and_then(Json::as_f64), Some(7.0));
        assert_ne!(root.id, child.id);
    }
}
