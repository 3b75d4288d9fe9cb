//! Closed-loop clients: each connection sends its next request only after
//! the reply to the previous one (or, for the writer, to its whole
//! pipelined window) arrived; the writer also keeps a fixed pace.  Every reply is verified; latencies,
//! completions, failures and — when traced — one span per request are
//! kept in a [`Recorder`].

use crate::data::{KvSpace, ScanClass, Sensors, EVENTS, SENSORS};
use crate::events::EventLog;
use crate::oracle::{Agg, Query, ScanReply};
use crate::trace::Span;
use leco_bench::report::Json;
use leco_server::protocol::response_code;
use leco_server::Client;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Request kinds whose latency the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET`.
    Get,
    /// `MGET` of 8 keys.
    MGet,
    /// `SCAN`.
    Scan,
    /// `PUT`.
    Put,
}

impl Op {
    /// Every op, in metric order.
    pub const ALL: [Op; 4] = [Op::Get, Op::MGet, Op::Scan, Op::Put];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::MGet => "mget",
            Op::Scan => "scan",
            Op::Put => "put",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Op::Get => "client.get",
            Op::MGet => "client.mget",
            Op::Scan => "client.scan",
            Op::Put => "client.put",
        }
    }
}

/// Keys per `MGET`.
pub const MGET_KEYS: usize = 8;
/// `PUT`s per pipelined writer window.
pub const PUT_WINDOW: usize = 4;
/// The writer's pace: rows it offers per second.
pub const PUT_ROWS_PER_S: u64 = 32;
/// The writer sends one `DEL` per this many windows (one per 256 `PUT`s).
pub const DEL_EVERY_WINDOWS: u64 = 64;
/// Fewest and most rows a live-table `SCAN` of the reader covers.
pub const LIVE_SCAN_ROWS: (u64, u64) = (262_144, 1_048_576);

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this instant.
    Until(Instant),
    /// After this many steps.
    Steps(u64),
}

/// Per-connection measurements.
#[derive(Default)]
pub struct Recorder {
    /// `(done stamp, latency ns)` samples, indexed like [`Op::ALL`].
    pub lat: [Vec<(u64, u64)>; 4],
    /// `SCAN` samples per [`ScanClass::ALL`] class, like [`Self::lat`].
    pub scan_class: [Vec<(u64, u64)>; 3],
    /// Requests sent.
    pub attempted: u64,
    /// Requests or checks that failed.
    pub failed: u64,
    /// When each reply arrived ([`leco_obs::epoch_ns`]), every verb.
    pub done_ns: Vec<u64>,
    /// When each read (`GET`, `MGET`, `SCAN`) reply arrived.
    pub read_done_ns: Vec<u64>,
    /// Rows acknowledged by `PUT` replies.
    pub put_rows: u64,
    /// Client spans, when traced.
    pub spans: Vec<Span>,
    traced: bool,
    conn: u64,
    seq: u64,
}

impl Recorder {
    /// A recorder for connection `conn`, recording a span per request if
    /// `traced`.
    pub fn new(conn: u64, traced: bool) -> Recorder {
        Recorder {
            traced,
            conn,
            ..Default::default()
        }
    }

    /// Record one completed request of `op` sent at `sent`, answered at
    /// `done` (both [`leco_obs::epoch_ns`] stamps).
    fn complete(&mut self, op: Option<Op>, sent: u64, done: u64) {
        self.done_ns.push(done);
        self.seq += 1;
        if let Some(op) = op {
            self.lat[op as usize].push((done, done.saturating_sub(sent)));
            if op != Op::Put {
                self.read_done_ns.push(done);
            }
        }
        if let (true, Some(op)) = (self.traced, op) {
            let req = (self.conn << 40) | self.seq;
            self.spans
                .push(Span::root(req, op.span_name(), self.conn, sent, done));
        }
    }

    /// Count a failed request or check, describing the first few.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!(
                "perfbench: check failed on connection {}: {}",
                self.conn,
                what()
            );
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what);
        }
    }

    /// Send `cmd`, wait for its reply, record it under `op`.
    fn call(&mut self, client: &mut Client, op: Op, cmd: &str) -> Option<Json> {
        self.attempted += 1;
        let sent = leco_obs::epoch_ns();
        match client.request(cmd) {
            Ok(reply) => {
                self.complete(Some(op), sent, leco_obs::epoch_ns());
                Some(reply)
            }
            Err(e) => {
                self.fail(|| format!("{cmd}: transport error {e}"));
                None
            }
        }
    }

    /// Fold another connection's measurements into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.scan_class.iter_mut().zip(other.scan_class) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done_ns.extend(other.done_ns);
        self.read_done_ns.extend(other.read_done_ns);
        self.put_rows += other.put_rows;
        self.spans.extend(other.spans);
    }
}

/// One connection's request generator.
pub trait Driver: Send {
    /// Issue the next request (or pipelined window) and verify the reply.
    fn step(&mut self, client: &mut Client, rec: &mut Recorder);
}

/// Run `driver` on its own connection to `addr` until `budget` is spent.
pub fn run_conn(
    addr: std::net::SocketAddr,
    driver: &mut dyn Driver,
    budget: Budget,
    rec: &mut Recorder,
) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            rec.attempted += 1;
            rec.fail(|| format!("connect: {e}"));
            return;
        }
    };
    let mut steps = 0u64;
    loop {
        let more = match budget {
            Budget::Until(t) => Instant::now() < t,
            Budget::Steps(n) => steps < n,
        };
        if !more {
            break;
        }
        driver.step(&mut client, rec);
        steps += 1;
    }
}

/// Does a `GET` reply, or one entry of an `MGET` reply, carry `want`
/// (`None`: a miss)?
fn value_matches(entry: &Json, want: Option<&str>) -> bool {
    let found = entry.get("found") == Some(&Json::Bool(true));
    match want {
        Some(v) => found && entry.get("value").and_then(Json::as_str) == Some(v),
        None => !found && entry.get("value") == Some(&Json::Null),
    }
}

/// Point reads of uniformly drawn records: `GET`s (10% for absent keys) and
/// `MGET`s of 8 keys.
pub struct KvDriver {
    /// Request stream.
    pub rng: StdRng,
    /// The stored records.
    pub kv: KvSpace,
}

impl KvDriver {
    fn record(&mut self) -> u64 {
        self.rng.gen_range(0..self.kv.n)
    }

    /// The next `GET` command and the value it must return.
    pub fn get_cmd(&mut self) -> (String, Option<String>) {
        if self.rng.gen_bool(0.1) {
            let k = 2 * self.rng.gen_range(0..self.kv.n) + 1;
            (format!("GET {}", KvSpace::key(k)), None)
        } else {
            let i = self.record();
            (
                format!("GET {}", KvSpace::key(2 * i)),
                Some(self.kv.value(i)),
            )
        }
    }

    /// The next `MGET` command and the records it names.
    pub fn mget_cmd(&mut self) -> (String, Vec<u64>) {
        let ids: Vec<u64> = (0..MGET_KEYS).map(|_| self.record()).collect();
        let mut cmd = String::from("MGET");
        for &i in &ids {
            cmd.push(' ');
            cmd.push_str(&KvSpace::key(2 * i));
        }
        (cmd, ids)
    }

    /// One `GET`.
    pub fn get(&mut self, client: &mut Client, rec: &mut Recorder) {
        let (cmd, want) = self.get_cmd();
        if let Some(reply) = rec.call(client, Op::Get, &cmd) {
            let ok = response_code(&reply) == 200 && value_matches(&reply, want.as_deref());
            rec.check(ok, || format!("{cmd}: wrong reply {}", reply.render()));
        }
    }

    /// One `MGET`.
    pub fn mget(&mut self, client: &mut Client, rec: &mut Recorder) {
        let (cmd, ids) = self.mget_cmd();
        if let Some(reply) = rec.call(client, Op::MGet, &cmd) {
            let values = reply.get("values").and_then(Json::as_arr);
            let ok = response_code(&reply) == 200
                && values.is_some_and(|vs| {
                    vs.len() == ids.len()
                        && vs
                            .iter()
                            .zip(&ids)
                            .all(|(v, &i)| value_matches(v, Some(&self.kv.value(i))))
                });
            rec.check(ok, || format!("{cmd}: wrong reply {}", reply.render()));
        }
    }
}

/// Send a `SCAN` of `query` on `table` and parse the reply; `None` after
/// recording a failure.
fn scan(client: &mut Client, rec: &mut Recorder, table: &str, query: &Query) -> Option<ScanReply> {
    let cmd = query.command(table);
    let reply = rec.call(client, Op::Scan, &cmd)?;
    let parsed = ScanReply::parse(&reply, query.agg);
    if parsed.is_none() {
        rec.fail(|| format!("{cmd}: malformed reply {}", reply.render()));
    }
    parsed
}

/// The analytic mix on the static table: 60% group-by over a 10–40%
/// window, 20% `COUNT` over a 0.1% window, 20% unfiltered `SUM`.  One
/// request in eight (and every `SUM`) is a pool query checked exactly.
pub struct ScanDriver<'a> {
    /// Request stream.
    pub rng: StdRng,
    /// The table and its oracle pool.
    pub sensors: &'a Sensors,
}

impl ScanDriver<'_> {
    /// One `SCAN` of `class`.
    pub fn scan_class(&mut self, class: ScanClass, client: &mut Client, rec: &mut Recorder) {
        let verified = class == ScanClass::Full || self.rng.gen_bool(0.125);
        let (query, answer) = if verified {
            let (_, q, a) = self.sensors.verified(class, &mut self.rng);
            (*q, Some(a))
        } else {
            (self.sensors.query(class, &mut self.rng), None)
        };
        if let Some(reply) = scan(client, rec, SENSORS, &query) {
            let sample = *rec.lat[Op::Scan as usize].last().expect("just recorded");
            rec.scan_class[class as usize].push(sample);
            if let Some(answer) = answer {
                rec.check(reply.matches(answer, query.agg), || {
                    format!(
                        "{}: {reply:?} differs from the oracle",
                        query.command(SENSORS)
                    )
                });
            }
        }
    }

    /// Draw a class of the mix.
    pub fn pick_class(&mut self) -> ScanClass {
        let r: f64 = self.rng.gen();
        if r < 0.6 {
            ScanClass::GroupBy
        } else if r < 0.8 {
            ScanClass::Narrow
        } else {
            ScanClass::Full
        }
    }
}

impl Driver for ScanDriver<'_> {
    fn step(&mut self, client: &mut Client, rec: &mut Recorder) {
        let class = self.pick_class();
        self.scan_class(class, client, rec);
    }
}

/// A fixed schedule of writer windows: one per `PUT_WINDOW / PUT_ROWS_PER_S`
/// seconds.  A writer that fell behind owes at most one window, so it never
/// bursts to catch up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pace {
    due: Option<Instant>,
}

impl Pace {
    fn interval() -> Duration {
        Duration::from_secs_f64(PUT_WINDOW as f64 / PUT_ROWS_PER_S as f64)
    }

    /// Is a window due at `now`?  If so, the schedule moves on by one.
    pub fn take(&mut self, now: Instant) -> bool {
        let due = self.due.unwrap_or(now);
        if due > now {
            return false;
        }
        let floor = now.checked_sub(Self::interval()).unwrap_or(now);
        self.due = Some(due.max(floor) + Self::interval());
        true
    }
}

/// The durable writer's connection: whenever its [`Pace`] says a window is
/// due, 4 pipelined `PUT`s with monotone `ts` (plus one `DEL` of a recent
/// row every 64th window), the next step only after every reply of the
/// window arrived; between windows, the reader's mix.  The pace keeps the
/// host's fsync latency, which every `PUT` waits for and every read queued
/// behind it in a shard waits for too, from setting the workload's figures.
pub struct Writer<'a> {
    /// Delete targets.
    pub rng: StdRng,
    /// Ground truth the acknowledged writes go into.
    pub log: &'a EventLog,
    /// Windows sent so far.
    pub windows: u64,
    /// When windows are due.
    pub pace: Pace,
    /// Reads between windows.
    pub reader: Reader<'a>,
}

impl<'a> Writer<'a> {
    /// A writer that has sent nothing yet.
    pub fn new(rng: StdRng, log: &'a EventLog, reader: Reader<'a>) -> Self {
        Writer {
            rng,
            log,
            windows: 0,
            pace: Pace::default(),
            reader,
        }
    }
}

/// The `PUT` of one live-table row.
pub fn put_cmd(row: &[u64; 3]) -> String {
    format!("PUT {EVENTS} {} {} {}", row[0], row[1], row[2])
}

fn acked(reply: &Json) -> bool {
    response_code(reply) == 200 && reply.get("durable") == Some(&Json::Bool(true))
}

impl Driver for Writer<'_> {
    fn step(&mut self, client: &mut Client, rec: &mut Recorder) {
        if !self.pace.take(Instant::now()) {
            return self.reader.step(client, rec);
        }
        let rows = self.log.next_rows(PUT_WINDOW);
        self.windows += 1;
        let del = if self.windows.is_multiple_of(DEL_EVERY_WINDOWS) {
            self.log.begin_delete(&mut self.rng)
        } else {
            None
        };
        let mut sent = Vec::with_capacity(rows.len());
        let mut transport_ok = true;
        for row in &rows {
            sent.push(leco_obs::epoch_ns());
            transport_ok &= client.send(&put_cmd(row)).is_ok();
        }
        if let Some(ts) = del {
            transport_ok &= client.send(&format!("DEL {EVENTS} {ts}")).is_ok();
        }
        rec.attempted += rows.len() as u64 + del.is_some() as u64;
        let mut all_acked = transport_ok;
        if transport_ok {
            for (row, &t0) in rows.iter().zip(&sent) {
                match client.recv() {
                    Ok(reply) if acked(&reply) => {
                        rec.complete(Some(Op::Put), t0, leco_obs::epoch_ns());
                        rec.put_rows += 1;
                    }
                    other => {
                        all_acked = false;
                        rec.fail(|| format!("{}: {:?}", put_cmd(row), other.map(|j| j.render())));
                    }
                }
            }
            if let Some(ts) = del {
                match client.recv() {
                    Ok(reply) if acked(&reply) => rec.complete(None, 0, leco_obs::epoch_ns()),
                    other => {
                        all_acked = false;
                        rec.fail(|| format!("DEL {ts}: {:?}", other.map(|j| j.render())));
                    }
                }
            }
        } else {
            rec.fail(|| "writer: send failed".into());
        }
        if !all_acked {
            self.log.taint();
        }
        let dels: Vec<u64> = del.into_iter().collect();
        self.log.commit(&rows, &dels);
        self.log.end_delete();
    }
}

/// The reader beside the writer: alternates point reads on the in-cache
/// store (`GET` and `MGET` in turn) with group-by `SCAN`s of the live table
/// over a recent window of 256k–1M rows (memtable, frozen segments,
/// compacted files and the preloaded file), each checked against the
/// writer's log.
pub struct Reader<'a> {
    /// Point reads.
    pub kv: KvDriver,
    /// Ground truth of the live table.
    pub log: &'a EventLog,
    /// Steps taken.
    pub steps: u64,
}

impl Reader<'_> {
    /// One group-by `SCAN` of a recent window of the live table.
    pub fn scan(&mut self, client: &mut Client, rec: &mut Recorder) {
        let Some(seen) = self.log.watermark() else {
            return;
        };
        let query = self.query(seen.hi);
        let lo = query.window.map_or(0, |w| w.0);
        let exact = self.kv.rng.gen_bool(0.125);
        if let Some(reply) = scan(client, rec, EVENTS, &query) {
            let check = |a: &crate::oracle::Answer| reply.matches(a, Agg::GroupAvg);
            let ok = self
                .log
                .check_window(lo, seen, reply.rows, exact.then_some(&check as _));
            rec.check(ok, || {
                format!(
                    "{}: {reply:?} disagrees with the write log",
                    query.command(EVENTS)
                )
            });
        }
    }

    /// A group-by over a recent window of 256k–1M rows ending at `hi`.
    pub fn query(&mut self, hi: u64) -> Query {
        let width = self.kv.rng.gen_range(LIVE_SCAN_ROWS.0..=LIVE_SCAN_ROWS.1);
        Query {
            window: Some((hi.saturating_sub(width), hi)),
            agg: Agg::GroupAvg,
        }
    }
}

impl Driver for Reader<'_> {
    fn step(&mut self, client: &mut Client, rec: &mut Recorder) {
        self.steps += 1;
        match self.steps % 4 {
            1 => self.kv.get(client, rec),
            3 => self.kv.mget(client, rec),
            _ => self.scan(client, rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_keeps_its_schedule_without_bursts() {
        let step = Pace::interval();
        let t0 = Instant::now();
        let mut pace = Pace::default();
        assert!(pace.take(t0));
        assert!(!pace.take(t0));
        assert!(!pace.take(t0 + step / 2));
        // A window sent late does not move the schedule.
        assert!(pace.take(t0 + step + step / 2));
        assert!(pace.take(t0 + 2 * step));
        assert!(!pace.take(t0 + 2 * step));
        // Far behind: one window at once, one more owed, then the pace.
        let late = t0 + 100 * step;
        assert!(pace.take(late));
        assert!(pace.take(late));
        assert!(!pace.take(late));
        assert!(pace.take(late + step));
    }
}
