//! `perfbench` — the repository benchmark: one named workload, driven over
//! real sockets against an in-process `leco-server`, verified, measured,
//! and reported as one JSON line.
//!
//! ```text
//! perfbench --workload <scan_analytics|ingest_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets the fixture up three times (the median is `setup_s`),
//! keeps the third, and measures a closed loop of two connections for
//! `--seconds`, in twenty sub-windows on fresh connections, of which it
//! reports the half in which the rest of the machine took the least CPU.
//! With `--trace 0` it reports the end-to-end metrics, which every
//! workload's own traffic produces.  With `--trace 1` it reports the
//! per-layer metrics instead:
//! client latencies per op, registry deltas over the window, an in-process
//! replay of a seeded sample under request-scoped spans, and the cost of
//! tracing itself.  The last line of standard output is `{"correct",
//! "attempted", "failed", "metrics"}`; a failed check makes the exit code 1.
//! `perfbench/README.md` describes every metric.

mod data;
mod events;
mod load;
mod oracle;
mod stats;
mod trace;

use data::{Fixture, ScanClass, EVENTS, SHARDS};
use leco_bench::report::Json;
use leco_obs::{Registry, Stopwatch};
use leco_server::protocol::response_code;
use leco_server::{Client, Server, ServerConfig};
use load::{Budget, Driver, KvDriver, Op, Reader, Recorder, ScanDriver, Writer};
use stats::{latencies, mean_us, quantile, ratio, Delta, Slicing};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analytic scans of a LeCo-encoded table.
    ScanAnalytics,
    /// Durable pipelined writes beside reads of the same live table.
    IngestMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan_analytics" => Some(Workload::ScanAnalytics),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ScanAnalytics => "scan_analytics",
            Workload::IngestMixed => "ingest_mixed",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 3;
/// Sub-windows of the timed window.
const ROUNDS: usize = 20;
/// Figures are taken over half of the sub-windows: of each block of this
/// many consecutive ones, the half in which the rest of the machine
/// (hypervisor steal, other processes) took the least CPU time.  The choice
/// rests on a measurement outside the program, so the program's own stalls
/// (compaction, fsync) count wherever they fall.
const QUIET_BLOCK: usize = 10;
/// Client spans of the window written to the Chrome trace.
const MAX_CLIENT_SPANS: usize = 20_000;

/// End-to-end metrics (untraced runs), with units: only figures every
/// workload's own traffic produces.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("scan_p50_us", "us"),
    ("scan_p95_us", "us"),
    ("space_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("cpu_us_per_req", "us"),
];

/// Per-layer metrics (traced runs), with units.  A unit ending in `.exact`
/// marks a count that is identical on every run with the same seed; the
/// run checks that it repeats.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.get_p50_us", "us"),
    ("client.get_p95_us", "us"),
    ("client.get_p99_us", "us"),
    ("client.get_samples", "count"),
    ("client.mget_p50_us", "us"),
    ("client.mget_p95_us", "us"),
    ("client.mget_p99_us", "us"),
    ("client.mget_samples", "count"),
    ("client.scan_p99_us", "us"),
    ("client.scan_samples", "count"),
    ("client.put_p50_us", "us"),
    ("client.put_p95_us", "us"),
    ("client.put_p99_us", "us"),
    ("client.put_samples", "count"),
    ("client.ingest_rows_s", "rows/s"),
    ("client.scan.narrow_p50_us", "us"),
    ("client.scan.groupby_p50_us", "us"),
    ("client.scan.full_p50_us", "us"),
    ("client.error_frac", "ratio"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.get_us", "us"),
    ("server.mget_us", "us"),
    ("server.scan_us", "us"),
    ("server.put_us", "us"),
    ("server.wire_us.get", "us"),
    ("server.wire_us.mget", "us"),
    ("server.wire_us.scan", "us"),
    ("server.wire_us.put", "us"),
    ("server.shard.wait_us.get", "us"),
    ("server.shard.wait_us.mget", "us"),
    ("server.shard.wait_us.scan", "us"),
    ("server.shard.wait_us.put", "us"),
    ("server.shard.jobs_per_req", "ratio.exact"),
    ("server.protocol.parse_ns", "ns"),
    ("server.protocol.render_ns", "ns"),
    ("server.merge_us", "us"),
    ("kvstore.seeks", "count"),
    ("kvstore.seek_us", "us"),
    ("kvstore.multi_get_us", "us"),
    ("kvstore.cache_hit_ratio", "ratio"),
    ("kvstore.cache_evictions", "count"),
    ("kvstore.block_reads", "count"),
    ("kvstore.index_bytes", "bytes.exact"),
    ("scan.morsels", "count"),
    ("scan.morsel_rows", "count"),
    ("scan.rows_selected", "count"),
    ("scan.selectivity", "ratio"),
    ("scan.pool.tasks", "count"),
    ("scan.pool.steals", "count"),
    ("scan.prefetch.hit_ratio", "ratio"),
    ("scan.run_us.narrow", "us"),
    ("scan.run_us.groupby", "us"),
    ("scan.run_us.full", "us"),
    ("columnar.chunks_read", "count.exact"),
    ("columnar.io_bytes", "bytes.exact"),
    ("columnar.row_groups_pruned", "count.exact"),
    ("columnar.rows_skipped_by_model", "count.exact"),
    ("columnar.boundary_rows_decoded", "count.exact"),
    ("columnar.rows_decoded_full", "count.exact"),
    ("columnar.chunk_io_us", "us"),
    ("columnar.chunk_cpu_us", "us"),
    ("core.fits", "count"),
    ("core.fit_us", "us"),
    ("core.partition_us", "us"),
    ("ingest.wal_commits", "count"),
    ("ingest.rows_per_commit", "ratio"),
    ("ingest.commit_us", "us"),
    ("ingest.wal_bytes_per_row", "bytes"),
    ("ingest.compactions", "count"),
    ("ingest.compact_s", "s"),
    ("ingest.compact_rows_s", "rows/s"),
    ("ingest.frozen_segments_end", "count"),
    ("ingest.files_end", "count"),
    ("ingest.live_scan_us", "us"),
    ("ingest.flush_s", "s"),
    ("ingest.replay_s", "s"),
    ("ingest.write_amp", "ratio"),
    ("setup.generate_s", "s"),
    ("setup.build_s", "s"),
    ("setup.preload_s", "s"),
    ("setup.start_s", "s"),
    ("setup.warmup_s", "s"),
    ("setup.space_ratio", "ratio.exact"),
    ("process.cpu_s", "s"),
    ("process.ctx_switches", "count"),
    ("trace.shard_us.get", "us"),
    ("trace.shard_us.mget", "us"),
    ("trace.shard_us.scan", "us"),
    ("trace.shard_us.put", "us"),
    ("trace.unattributed_us.get", "us"),
    ("trace.unattributed_us.mget", "us"),
    ("trace.unattributed_us.scan", "us"),
    ("trace.unattributed_us.put", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.sample_requests", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// A run's measurements, in emission order.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The result object, with every metric of `declared` present exactly
    /// once and nothing else.
    fn to_json(&self, declared: &[(&str, &str)]) -> Result<Json, String> {
        let mut out = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let mut hits = self.0.iter().filter(|(n, _)| n == name);
            let (_, value) = hits
                .next()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if hits.next().is_some() || !value.is_finite() {
                return Err(format!("metric {name} is duplicated or not finite"));
            }
            out.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !declared.iter().any(|d| d.0 == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(Json::Obj(out))
    }
}

/// Tally of requests and checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
    }

    /// Count one end-of-run check.
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <scan_analytics|ingest_mixed> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench_run");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &dir);
    std::fs::remove_dir_all(&dir).ok();
    match result {
        Ok((tally, metrics)) => {
            let declared = if args.trace { PER_LAYER } else { END_TO_END };
            let metrics = match metrics.to_json(declared) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let correct = tally.failed == 0;
            let line = Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(tally.attempted as f64)),
                ("failed".into(), Json::Num(tally.failed as f64)),
                ("metrics".into(), metrics),
            ]);
            println!("{}", line.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}

/// The two closed-loop connections of `workload` for phase `phase`
/// (separate request streams for warm-up, window and sample).
fn drivers<'a>(
    workload: Workload,
    fx: &'a Fixture,
    seed: u64,
    phase: u64,
) -> Vec<Box<dyn Driver + 'a>> {
    let rng = |conn: u64| data::rng_for(seed, 1000 * phase + conn);
    match workload {
        Workload::ScanAnalytics => {
            let sensors = fx
                .sensors
                .as_ref()
                .expect("scan_analytics has a static table");
            (0..2)
                .map(|c| {
                    Box::new(ScanDriver {
                        rng: rng(c),
                        sensors,
                    }) as Box<dyn Driver>
                })
                .collect()
        }
        Workload::IngestMixed => {
            let reader = |conn: u64| Reader {
                kv: KvDriver {
                    rng: rng(conn),
                    kv: fx.kv,
                },
                log: &fx.events,
                steps: 0,
            };
            vec![
                Box::new(Writer::new(rng(0), &fx.events, reader(2))),
                Box::new(reader(1)),
            ]
        }
    }
}

/// Run each driver on its own fresh connection and client thread against
/// `addr` until its budget is spent.  `round` numbers the connections (and
/// so the request ids) of repeated calls.
fn drive(
    conns: &mut [Box<dyn Driver + '_>],
    addr: std::net::SocketAddr,
    budget: [Budget; 2],
    round: u64,
    traced: bool,
) -> Recorder {
    let recs: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(budget)
            .enumerate()
            .map(|(c, (driver, budget))| {
                s.spawn(move || {
                    let mut rec = Recorder::new((round << 8) | (c as u64 + 1), traced);
                    load::run_conn(addr, driver.as_mut(), budget, &mut rec);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut total = Recorder::default();
    for rec in recs {
        total.absorb(rec);
    }
    total
}

/// Warm-up budget per connection.
fn warm_up_budget(workload: Workload) -> [Budget; 2] {
    match workload {
        Workload::ScanAnalytics => [Budget::Steps(24); 2],
        Workload::IngestMixed => [Budget::Steps(80); 2],
    }
}

/// The seeded sample the traced run replays: the workload's own request
/// generators on a dedicated stream.  `PUT` rows are drawn fresh each time
/// (the caller commits them to the log once they are acknowledged).
fn sample(workload: Workload, fx: &Fixture, seed: u64) -> (Vec<String>, Vec<[u64; 3]>) {
    match workload {
        Workload::ScanAnalytics => {
            let sensors = fx.sensors.as_ref().expect("static table");
            let mut rng = data::rng_for(seed, 77);
            let mut d = ScanDriver {
                rng: data::rng_for(seed, 79),
                sensors,
            };
            let cmds = (0..48)
                .map(|_| {
                    let class = d.pick_class();
                    sensors.query(class, &mut rng).command(data::SENSORS)
                })
                .collect();
            (cmds, Vec::new())
        }
        Workload::IngestMixed => {
            let rows = fx.events.next_rows(64);
            let hi = fx.events.watermark().map_or(0, |w| w.hi);
            let mut reader = Reader {
                kv: KvDriver {
                    rng: data::rng_for(seed, 78),
                    kv: fx.kv,
                },
                log: &fx.events,
                steps: 0,
            };
            let mut cmds = Vec::new();
            for (k, row) in rows.iter().enumerate() {
                cmds.push(load::put_cmd(row));
                cmds.push(match k % 4 {
                    0 => reader.kv.get_cmd().0,
                    2 => reader.kv.mget_cmd().0,
                    _ => reader.query(hi).command(EVENTS),
                });
            }
            (cmds, rows)
        }
    }
}

/// Send `cmds` one at a time on a fresh connection; returns the rendered
/// replies, or `None` after a transport failure.
fn send_all(addr: std::net::SocketAddr, cmds: &[String]) -> Option<Vec<String>> {
    let mut client = Client::connect(addr).ok()?;
    cmds.iter()
        .map(|cmd| client.request(cmd).ok().map(|r| r.render()))
        .collect()
}

/// Everything one run measures before metrics are derived.
struct Run {
    setup_s: Vec<f64>,
    final_times: data::SetupTimes,
    start_s: f64,
    warmup_s: f64,
    window: Recorder,
    window_slices: Slicing,
    before: leco_obs::MetricsSnapshot,
    after: leco_obs::MetricsSnapshot,
    setup_before: leco_obs::MetricsSnapshot,
    cpu_s: f64,
    cpu_us_per_req: f64,
    ctx_switches: u64,
    peak_rss_kib: f64,
    trace_overhead: f64,
    space_ratio: f64,
    setup_space_ratio: f64,
    index_bytes: u64,
    replay: Option<trace::Replay>,
    jobs_per_req: f64,
    sample_requests: u64,
    spans_written: u64,
    ingest: IngestEnd,
}

/// One sub-window of the timed window.
struct Round {
    /// Start and end stamps (ns).
    span: (u64, u64),
    /// Process CPU seconds.
    cpu_s: f64,
    /// Replies, every verb.
    replies: u64,
    /// Peak resident size.
    peak_rss_kib: f64,
    /// CPUs' worth of time the rest of the machine was busy: machine busy
    /// time (steal included) minus this process's CPU, per wall second.
    others: f64,
}

/// The live table at and after the end of the window.
#[derive(Default)]
struct IngestEnd {
    files: u64,
    new_file_bytes: u64,
    flush_s: f64,
    replay_s: f64,
}

fn run(args: &Args, dir: &Path) -> Result<(Tally, Metrics), String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let wl = args.workload;
    let mut tally = Tally::default();
    std::fs::create_dir_all(dir).map_err(io("creating the data directory"))?;

    // ── Set up SETUP_TRIALS times; keep the last.
    let mut setup_s = Vec::new();
    let mut exact_setup = Vec::new();
    let mut kept = None;
    let mut replays = Vec::new();
    let mut sample_requests = 0u64;
    let mut setup_before = Registry::global().snapshot();
    for trial in 0..SETUP_TRIALS {
        let last = trial + 1 == SETUP_TRIALS;
        let trial_dir = dir.join(format!("t{trial}"));
        if last {
            setup_before = Registry::global().snapshot();
        }
        let sw = Stopwatch::start();
        let mut fx = data::build(wl, args.seed, &trial_dir).map_err(io("building the fixture"))?;
        let build_s = sw.elapsed_secs();
        exact_setup.push((fx.space_ratio.to_bits(), fx.index_bytes));
        // Not part of the program's set-up: settle the page cache so the
        // window does not share the disk with writeback of the fixture.
        data::sync_tree(&trial_dir).map_err(io("syncing the fixture"))?;

        if last && args.trace {
            // Two in-process passes of the sample before the set goes to the
            // server; their work counts must agree exactly.
            let set = fx.set.as_ref().expect("not yet served");
            for pass in 0..2u64 {
                let (cmds, rows) = sample(wl, &fx, args.seed);
                let r =
                    trace::replay(set, &cmds, (pass + 1) << 48).map_err(io("in-process replay"))?;
                fx.events.commit(&rows, &[]);
                sample_requests = cmds.len() as u64;
                replays.push((cmds, r));
            }
        }

        let sw = Stopwatch::start();
        let server = Server::start(fx.set.take().expect("built"), ServerConfig::default())
            .map_err(io("starting the server"))?;
        let start_s = sw.elapsed_secs();
        let sw = Stopwatch::start();
        let mut warm_conns = drivers(wl, &fx, args.seed, 1 + trial as u64);
        let warm = drive(
            &mut warm_conns,
            server.local_addr(),
            warm_up_budget(wl),
            0,
            false,
        );
        drop(warm_conns);
        tally.add(&warm);
        let warmup_s = sw.elapsed_secs();
        setup_s.push(build_s + start_s + warmup_s);
        if last {
            kept = Some((fx, server, start_s, warmup_s));
        } else {
            server.shutdown();
            drop(fx);
            std::fs::remove_dir_all(&trial_dir).ok();
        }
    }
    tally.check(
        exact_setup.windows(2).all(|w| w[0] == w[1]),
        "space ratio and index bytes repeat across set-ups",
    );
    let (fx, server, start_s, warmup_s) = kept.expect("at least one trial");
    let addr = server.local_addr();

    // ── Traced runs: the sample through the socket, twice (shard jobs per
    // request must repeat, and every stable reply must equal the
    // in-process one).
    let mut jobs_per_req = 0.0;
    let mut replay = None;
    if args.trace {
        let mut per_pass = Vec::new();
        for (cmds, inproc) in &replays {
            let mut cmds = cmds.clone();
            let fresh = fx
                .events
                .next_rows(cmds.iter().filter(|c| c.starts_with("PUT ")).count());
            let mut next = fresh.iter();
            for cmd in cmds.iter_mut().filter(|c| c.starts_with("PUT ")) {
                *cmd = load::put_cmd(next.next().expect("one row per PUT"));
            }
            let s0 = Registry::global().snapshot();
            let replies = send_all(addr, &cmds);
            let s1 = Registry::global().snapshot();
            let d = Delta::new(&s0, &s1);
            per_pass.push(ratio(
                d.counter("srv.shard.jobs") as f64,
                d.counter("srv.requests") as f64,
            ));
            tally.check(replies.is_some(), "sample replay over the socket");
            fx.events.commit(&fresh, &[]);
            if let Some(replies) = replies {
                let agree = cmds
                    .iter()
                    .zip(&replies)
                    .zip(&inproc.replies)
                    .all(|((cmd, served), local)| !trace::stable_reply(cmd) || served == local);
                let ok = replies.iter().all(|r| r.contains("\"code\":200"));
                tally.check(agree && ok, "served replies equal the in-process replay");
            }
        }
        tally.check(
            per_pass
                .windows(2)
                .all(|w| w[0].to_bits() == w[1].to_bits()),
            "shard jobs per request repeat",
        );
        let counts: Vec<[u64; 6]> = replays.iter().map(|(_, r)| r.work_counts()).collect();
        tally.check(
            counts.windows(2).all(|w| w[0] == w[1]),
            "columnar work counts repeat",
        );
        jobs_per_req = per_pass[0];
        replay = replays.pop().map(|(_, r)| r);
    }

    // ── The timed window: ROUNDS sub-windows, each on fresh connections;
    // traced runs trace every other sub-window.  Figures come from the
    // half of them in which others took the least CPU (see `QUIET_BLOCK`).
    let files_before = data::live_files(&fx.dir).map_err(io("reading live manifests"))?;
    let mut conns = drivers(wl, &fx, args.seed, 10);
    let mut window = Recorder::default();
    let mut rates = [Vec::new(), Vec::new()];
    let (mut cpu_s, mut ctx_switches) = (0.0, 0);
    let sub_window = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let before = Registry::global().snapshot();
    for round in 0..ROUNDS {
        let traced = args.trace && round % 2 == 1;
        // The peak resident size is each sub-window's, not the set-up's.
        stats::reset_peak_rss().map_err(io("resetting the peak resident size"))?;
        let busy0 = stats::machine_busy_secs().map_err(io("reading /proc/stat"))?;
        let u0 = stats::usage();
        let t0 = leco_obs::epoch_ns();
        let deadline = Instant::now() + sub_window;
        let rec = drive(
            &mut conns,
            addr,
            [Budget::Until(deadline); 2],
            round as u64,
            traced,
        );
        let t1 = leco_obs::epoch_ns();
        let u1 = stats::usage();
        let busy1 = stats::machine_busy_secs().map_err(io("reading /proc/stat"))?;
        let wall_s = (t1 - t0) as f64 / 1e9;
        let cpu = u1.cpu_secs - u0.cpu_secs;
        let r = Round {
            span: (t0, t1),
            cpu_s: cpu,
            replies: rec.done_ns.len() as u64,
            peak_rss_kib: stats::peak_rss_kib().map_err(io("reading the peak resident size"))?
                as f64,
            others: ((busy1 - busy0) - cpu).max(0.0) / wall_s,
        };
        cpu_s += cpu;
        ctx_switches += u1.ctx_switches - u0.ctx_switches;
        let rate = rec.read_done_ns.len() as f64 / wall_s;
        eprintln!(
            "perfbench: sub-window {round}: {rate:.1} reads/s, {} PUTs, {:.1} us CPU per request, {:.2} CPUs busy elsewhere",
            rec.lat[Op::Put as usize].len(),
            cpu * 1e6 / r.replies.max(1) as f64,
            r.others,
        );
        rates[traced as usize].push(rate);
        rounds.push(r);
        window.absorb(rec);
    }
    let after = Registry::global().snapshot();
    let others: Vec<f64> = rounds.iter().map(|r| r.others).collect();
    let quiet: Vec<&Round> = stats::least_contended(&others, QUIET_BLOCK)
        .into_iter()
        .map(|k| &rounds[k])
        .collect();
    let window_slices = Slicing {
        slices: quiet.iter().map(|r| r.span).collect(),
    };
    let peaks: Vec<f64> = quiet.iter().map(|r| r.peak_rss_kib).collect();
    let peak_rss_kib = stats::median(&peaks);
    let cpu_us_per_req = ratio(
        quiet.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6,
        quiet.iter().map(|r| r.replies).sum::<u64>() as f64,
    );
    drop(conns);
    tally.add(&window);
    let trace_overhead = match rates {
        [untraced, traced] if !traced.is_empty() => {
            1.0 - stats::median(&traced) / stats::median(&untraced)
        }
        _ => 0.0,
    };

    // ── The live table after the window: flush, check, reopen, re-check.
    let mut ingest = IngestEnd::default();
    let mut space_ratio = fx.space_ratio;
    if wl == Workload::IngestMixed {
        let files_end = data::live_files(&fx.dir).map_err(io("reading live manifests"))?;
        ingest.files = files_end.len() as u64;
        ingest.new_file_bytes = files_end
            .iter()
            .filter(|f| !files_before.contains(f))
            .filter_map(|f| std::fs::metadata(f).ok())
            .map(|m| m.len())
            .sum();
        let want = fx.events.totals();
        tally.check(want.is_some(), "every write acknowledged");
        let mut client = Client::connect(addr).map_err(io("check connection"))?;
        let sw = Stopwatch::start();
        let flushed = client.request("FLUSH").map(|r| response_code(&r) == 200);
        ingest.flush_s = sw.elapsed_secs();
        tally.check(matches!(flushed, Ok(true)), "FLUSH");
        let served = client
            .request(&format!("SCAN {EVENTS} SUM val"))
            .ok()
            .and_then(|r| oracle::ScanReply::parse(&r, oracle::Agg::Sum));
        tally.check(
            want.is_some() && served.as_ref().map(|s| (s.rows, s.sum)) == want,
            "served live rows and sum equal the write log after FLUSH",
        );
        let live_rows = want.map_or(0, |w| w.0);
        space_ratio = ratio(
            data::live_bytes(&fx.dir).map_err(io("sizing live files"))? as f64,
            live_rows as f64 * 24.0,
        );
    }
    server.shutdown();
    if wl == Workload::IngestMixed {
        let sw = Stopwatch::start();
        let mut reopened = Vec::new();
        for k in 0..SHARDS {
            reopened.push(
                leco_ingest::LiveTable::open(
                    data::live_dir(&fx.dir, k),
                    &data::COLUMNS,
                    data::ingest_config(false),
                )
                .map_err(io("reopening the live table"))?,
            );
        }
        ingest.replay_s = sw.elapsed_secs();
        let mut rows = 0u64;
        let mut sum = 0u128;
        for live in &reopened {
            let out = live
                .scan(&leco_ingest::ScanSpec::count().sum("val"), 1)
                .map_err(io("scanning the reopened table"))?;
            rows += out.rows_selected;
            sum += out.sum;
        }
        tally.check(
            fx.events.totals() == Some((rows, sum)),
            "reopened live table equals the write log",
        );
    }

    // ── Chrome trace of the traced run: the replay, and the first client
    // spans of the window (enough to see its shape; the file stays small).
    let mut spans_written = 0;
    if args.trace {
        let mut spans: Vec<trace::Span> = window
            .spans
            .iter()
            .take(MAX_CLIENT_SPANS)
            .copied()
            .collect();
        if let Some(r) = &replay {
            spans.extend(r.spans.iter().copied());
        }
        spans_written = spans.len() as u64;
        let path = dir
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("trace-{}.json", wl.name()));
        std::fs::write(&path, trace::chrome_trace(&spans).render())
            .map_err(io("writing the trace"))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        );
    }

    let run = Run {
        setup_s,
        final_times: fx.times,
        start_s,
        warmup_s,
        window,
        window_slices,
        before,
        after,
        setup_before,
        cpu_s,
        cpu_us_per_req,
        ctx_switches,
        peak_rss_kib,
        trace_overhead,
        space_ratio,
        setup_space_ratio: fx.space_ratio,
        index_bytes: fx.index_bytes,
        replay,
        jobs_per_req,
        sample_requests,
        spans_written,
        ingest,
    };
    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(wl, &run, &tally, &mut metrics);
    } else {
        end_to_end(&run, &mut metrics)?;
    }
    Ok((tally, metrics))
}

fn end_to_end(run: &Run, m: &mut Metrics) -> Result<(), String> {
    m.put("setup_s", stats::median(&run.setup_s));
    m.put(
        "throughput_rps",
        run.window_slices.rate(&run.window.read_done_ns),
    );
    let scans = &run.window.lat[Op::Scan as usize];
    for (q, label) in [(0.50, "p50"), (0.95, "p95")] {
        let v = run
            .window_slices
            .quantile(scans, q)
            .ok_or_else(|| format!("scan {label}: only {} samples", scans.len()))?;
        m.put(format!("scan_{label}_us"), v as f64 / 1e3);
    }
    m.put("space_ratio", run.space_ratio);
    m.put("peak_rss_mb", run.peak_rss_kib / 1024.0);
    m.put("cpu_us_per_req", run.cpu_us_per_req);
    Ok(())
}

fn per_layer(wl: Workload, run: &Run, tally: &Tally, m: &mut Metrics) {
    let d = Delta::new(&run.before, &run.after);
    let w = &run.window;
    let empty = trace::Replay::default();
    let replay = run.replay.as_ref().unwrap_or(&empty);

    // client
    let client_mean: Vec<f64> = Op::ALL
        .iter()
        .map(|&op| mean_us(&latencies(&w.lat[op as usize])))
        .collect();
    for op in Op::ALL {
        let samples = &w.lat[op as usize];
        // p50/p95 as the end-to-end figures are taken (median group of
        // sub-windows), except for `SCAN`, which is end-to-end already.
        if op != Op::Scan {
            for (q, label) in [(0.50, "p50"), (0.95, "p95")] {
                let v = run.window_slices.quantile(samples, q).unwrap_or(0);
                m.put(format!("client.{}_{label}_us", op.name()), v as f64 / 1e3);
            }
        }
        let lat = latencies(samples);
        m.put(
            format!("client.{}_p99_us", op.name()),
            quantile(&lat, 0.99).unwrap_or(0) as f64 / 1e3,
        );
        m.put(format!("client.{}_samples", op.name()), lat.len() as f64);
    }
    let put_done: Vec<u64> = w.lat[Op::Put as usize].iter().map(|&(t, _)| t).collect();
    m.put("client.ingest_rows_s", run.window_slices.rate(&put_done));
    for class in ScanClass::ALL {
        let lat = latencies(&w.scan_class[class as usize]);
        m.put(
            format!("client.scan.{}_p50_us", class.name()),
            quantile(&lat, 0.5).unwrap_or(0) as f64 / 1e3,
        );
    }
    m.put(
        "client.error_frac",
        ratio(tally.failed as f64, tally.attempted as f64),
    );

    // server
    m.put("server.requests", d.counter("srv.requests") as f64);
    m.put("server.errors", d.counter("srv.errors") as f64);
    for (k, op) in Op::ALL.into_iter().enumerate() {
        let srv = d.mean(match op {
            Op::Get => "srv.latency.get_ns",
            Op::MGet => "srv.latency.mget_ns",
            Op::Scan => "srv.latency.scan_ns",
            Op::Put => "srv.latency.put_ns",
        }) / 1e3;
        let busy = mean_us(&replay.ops[k].shard);
        let measured = client_mean[k] > 0.0;
        m.put(format!("server.{}_us", op.name()), srv);
        m.put(
            format!("server.wire_us.{}", op.name()),
            if measured { client_mean[k] - srv } else { 0.0 },
        );
        m.put(
            format!("server.shard.wait_us.{}", op.name()),
            if measured { srv - busy } else { 0.0 },
        );
        let layers = &replay.ops[k];
        let attributed =
            mean_us(&layers.parse) + busy + mean_us(&layers.merge) + mean_us(&layers.render);
        m.put(format!("trace.shard_us.{}", op.name()), busy);
        m.put(
            format!("trace.unattributed_us.{}", op.name()),
            if measured {
                client_mean[k] - attributed
            } else {
                0.0
            },
        );
    }
    m.put("server.shard.jobs_per_req", run.jobs_per_req);
    let all = |f: fn(&trace::OpLayers) -> &Vec<u64>| -> Vec<u64> {
        replay
            .ops
            .iter()
            .flat_map(|l| f(l).iter().copied())
            .collect()
    };
    m.put(
        "server.protocol.parse_ns",
        mean_us(&all(|l| &l.parse)) * 1e3,
    );
    m.put(
        "server.protocol.render_ns",
        mean_us(&all(|l| &l.render)) * 1e3,
    );
    m.put("server.merge_us", mean_us(&all(|l| &l.merge)));

    // kvstore
    m.put("kvstore.seeks", d.count("kv.get_ns") as f64);
    m.put("kvstore.seek_us", d.mean("kv.get_ns") / 1e3);
    m.put("kvstore.multi_get_us", d.mean("kv.multi_get_ns") / 1e3);
    let (hits, misses) = (
        d.counter("kv.cache.hits") as f64,
        d.counter("kv.cache.misses") as f64,
    );
    m.put("kvstore.cache_hit_ratio", ratio(hits, hits + misses));
    m.put(
        "kvstore.cache_evictions",
        d.counter("kv.cache.evictions") as f64,
    );
    m.put("kvstore.block_reads", misses);
    m.put("kvstore.index_bytes", run.index_bytes as f64);

    // scan
    let morsel_rows = d.counter("scan.morsel_rows") as f64;
    m.put("scan.morsels", d.counter("scan.morsels") as f64);
    m.put("scan.morsel_rows", morsel_rows);
    m.put("scan.rows_selected", d.counter("scan.rows_selected") as f64);
    m.put(
        "scan.selectivity",
        ratio(d.counter("scan.rows_selected") as f64, morsel_rows),
    );
    m.put("scan.pool.tasks", d.counter("scan.pool.tasks") as f64);
    m.put("scan.pool.steals", d.counter("scan.pool.steals") as f64);
    let (ph, pm) = (
        d.counter("scan.prefetch.hits") as f64,
        d.counter("scan.prefetch.misses") as f64,
    );
    m.put("scan.prefetch.hit_ratio", ratio(ph, ph + pm));
    for class in ScanClass::ALL {
        m.put(
            format!("scan.run_us.{}", class.name()),
            mean_us(&replay.scan_class[class as usize]),
        );
    }

    // columnar
    let names = [
        "columnar.chunks_read",
        "columnar.io_bytes",
        "columnar.row_groups_pruned",
        "columnar.rows_skipped_by_model",
        "columnar.boundary_rows_decoded",
        "columnar.rows_decoded_full",
    ];
    for (name, v) in names.iter().zip(replay.work_counts()) {
        m.put(*name, v as f64);
    }
    m.put("columnar.chunk_io_us", d.mean("columnar.chunk_io_ns") / 1e3);
    m.put(
        "columnar.chunk_cpu_us",
        d.mean("columnar.chunk_cpu_ns") / 1e3,
    );

    // core: over the kept set-up and the window (encoding happens in both).
    let sd = Delta::new(&run.setup_before, &run.after);
    m.put("core.fits", sd.count("core.fit_ns") as f64);
    m.put("core.fit_us", sd.mean("core.fit_ns") / 1e3);
    let partition = [
        "core.partition.split_ns",
        "core.partition.merge_ns",
        "core.partition.dp_ns",
        "core.partition.bisect_ns",
        "core.partition.refine_ns",
    ];
    let (psum, pcount) = partition
        .iter()
        .fold((0u64, 0u64), |(s, c), n| (s + sd.sum(n), c + sd.count(n)));
    m.put("core.partition_us", ratio(psum as f64, pcount as f64) / 1e3);

    // ingest
    let put_rows = d.counter("ing.put_rows") as f64;
    let commits = d.counter("ing.wal_commits") as f64;
    m.put("ingest.wal_commits", commits);
    m.put("ingest.rows_per_commit", ratio(put_rows, commits));
    m.put("ingest.commit_us", d.mean("ing.commit_secs") / 1e3);
    m.put(
        "ingest.wal_bytes_per_row",
        ratio(d.counter("ing.wal_bytes") as f64, put_rows),
    );
    m.put("ingest.compactions", d.counter("ing.compactions") as f64);
    m.put("ingest.compact_s", d.mean("ing.compact_secs") / 1e9);
    m.put(
        "ingest.compact_rows_s",
        ratio(
            d.counter("ing.compact_rows") as f64,
            d.sum("ing.compact_secs") as f64 / 1e9,
        ),
    );
    m.put(
        "ingest.frozen_segments_end",
        if wl == Workload::IngestMixed {
            d.gauge_after("ing.frozen_segments") as f64
        } else {
            0.0
        },
    );
    m.put("ingest.files_end", run.ingest.files as f64);
    m.put("ingest.live_scan_us", mean_us(&replay.live_scan));
    m.put("ingest.flush_s", run.ingest.flush_s);
    m.put("ingest.replay_s", run.ingest.replay_s);
    m.put(
        "ingest.write_amp",
        ratio(
            (d.counter("ing.wal_bytes") + run.ingest.new_file_bytes) as f64,
            put_rows * 24.0,
        ),
    );

    // setup
    m.put("setup.generate_s", run.final_times.generate_s);
    m.put("setup.build_s", run.final_times.build_s);
    m.put("setup.preload_s", run.final_times.preload_s);
    m.put("setup.start_s", run.start_s);
    m.put("setup.warmup_s", run.warmup_s);
    m.put("setup.space_ratio", run.setup_space_ratio);

    // process
    m.put("process.cpu_s", run.cpu_s);
    m.put("process.ctx_switches", run.ctx_switches as f64);

    // trace
    m.put("trace.overhead_frac", run.trace_overhead);
    m.put("trace.spans", run.spans_written as f64);
    m.put("trace.sample_requests", run.sample_requests as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists compiled in here are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let mine: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, mine, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["scan_analytics", "ingest_mixed"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn metrics_must_match_the_declaration() {
        let mut m = Metrics::default();
        m.put("a", 1.5);
        assert!(m.to_json(&[("a", "s")]).is_ok());
        assert!(m.to_json(&[("a", "s"), ("b", "s")]).is_err());
        assert!(m.to_json(&[]).is_err());
        m.put("a", 2.0);
        assert!(m.to_json(&[("a", "s")]).is_err());
    }
}
