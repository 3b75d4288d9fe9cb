//! Measurement helpers: nearest-rank percentiles with a sample-count rule,
//! statistics over time slices, registry-delta arithmetic over `leco_obs`
//! snapshots, and the process's resource usage.

use leco_obs::MetricsSnapshot;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q · n` samples at or below it.  `None` on an empty
/// sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Fewest samples for which the `q`-quantile is reported: at least ten
/// samples must lie at or above it, so one outlier cannot be the answer.
/// p50 needs 20 samples, p95 200 and p99 1000.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The `q`-quantile under the sample-count rule, or `None` when the sample
/// is too small to support it.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.len() < min_samples(q) {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Median of a few floats (the mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Measured intervals `[start, end]` (ns stamps, ascending, disjoint).
///
/// Figures over slices are the median slice's: a disturbance that hits a
/// minority of slices (a descheduled virtual CPU, a neighbour's burst of
/// I/O) leaves the figure alone, while a cost the program pays in most
/// slices (its own compaction and fsync stalls included) moves it.
#[derive(Debug, Clone, Default)]
pub struct Slicing {
    /// The slices.
    pub slices: Vec<(u64, u64)>,
}

impl Slicing {
    /// The slice holding stamp `t`, if any.
    fn slice_of(&self, t: u64) -> Option<usize> {
        let k = self.slices.partition_point(|&(start, _)| start <= t);
        (k > 0 && t <= self.slices[k - 1].1).then(|| k - 1)
    }

    /// Completions per second (`done` are stamps), over slices.
    pub fn rate(&self, done: &[u64]) -> f64 {
        let mut per = vec![0u64; self.slices.len()];
        for &t in done {
            if let Some(k) = self.slice_of(t) {
                per[k] += 1;
            }
        }
        let rates: Vec<f64> = per
            .iter()
            .zip(&self.slices)
            .map(|(&c, &(start, end))| ratio(c as f64, end.saturating_sub(start) as f64 / 1e9))
            .collect();
        median(&rates)
    }

    /// The `q`-quantile of `(done, latency)` samples, over groups of
    /// consecutive slices that hold `min_samples(q)` samples on average:
    /// each group's nearest-rank quantile, then their median.  With
    /// fewer than three groups it is the pooled quantile.  `None` when the
    /// whole sample is below the sample-count rule.
    pub fn quantile(&self, samples: &[(u64, u64)], q: f64) -> Option<u64> {
        let need = min_samples(q);
        if samples.len() < need {
            return None;
        }
        let n = self.slices.len().max(1);
        let per_group = need.div_ceil(samples.len() / n + 1).max(1);
        let groups = n / per_group;
        if groups < 3 {
            return quantile(&latencies(samples), q);
        }
        let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); groups];
        for &s in samples {
            if let Some(k) = self.slice_of(s.0) {
                buckets[(k / per_group).min(groups - 1)].push(s);
            }
        }
        let values: Vec<f64> = buckets
            .iter()
            .filter_map(|b| nearest_rank(&latencies(b), q))
            .map(|v| v as f64)
            .collect();
        Some(median(&values).round() as u64)
    }
}

/// Latencies of `(done, latency)` samples, ascending.
pub fn latencies(samples: &[(u64, u64)]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(|&(_, l)| l).collect();
    v.sort_unstable();
    v
}

/// Mean of a sample in nanoseconds, as microseconds; 0 when empty.
pub fn mean_us(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.iter().map(|&v| v as f64).sum::<f64>() / samples_ns.len() as f64 / 1e3
}

/// What the process-global registry recorded between two snapshots.
pub struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl<'a> Delta<'a> {
    /// The activity between `before` and `after`.
    pub fn new(before: &'a MetricsSnapshot, after: &'a MetricsSnapshot) -> Self {
        Delta { before, after }
    }

    /// Growth of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter_delta(self.before, name)
    }

    /// Samples a histogram gained.
    pub fn count(&self, name: &str) -> u64 {
        self.after.hist_count_delta(self.before, name)
    }

    /// Growth of a histogram's sample sum.
    pub fn sum(&self, name: &str) -> u64 {
        let sum = |s: &MetricsSnapshot| s.histograms.get(name).map_or(0, |h| h.sum);
        sum(self.after).saturating_sub(sum(self.before))
    }

    /// Mean of the samples a histogram gained (its unit), 0 if none.
    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name) as f64, self.count(name) as f64)
    }

    /// Gauge value at the later snapshot.
    pub fn gauge_after(&self, name: &str) -> i64 {
        self.after.gauge(name)
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resource usage of this process over all its threads, exited ones too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_secs: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of the C struct on 64-bit Linux, and
    // getrusage writes only into the buffer it is handed.  The buffer is
    // zero-initialised, so it is a valid `Rusage` even if the call fails.
    let ru = unsafe {
        getrusage(RUSAGE_SELF, ru.as_mut_ptr());
        ru.assume_init()
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_secs: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// CPU seconds the whole machine has spent busy since boot, over all its
/// CPUs: user, nice, system, irq, softirq and steal time from the `cpu`
/// line of `/proc/stat` (guest time is already part of user time).
pub fn machine_busy_secs() -> std::io::Result<f64> {
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks = parse_busy_ticks(&stat)
        .ok_or_else(|| std::io::Error::other("no cpu line in /proc/stat"))?;
    // SAFETY: sysconf only reads a system constant.
    let per_sec = unsafe { sysconf(SC_CLK_TCK) };
    Ok(ticks as f64 / per_sec.max(1) as f64)
}

/// Busy ticks of the `cpu` line of a `/proc/stat` text: every field but
/// idle, iowait, guest and guest_nice.
fn parse_busy_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (f.len() >= 8).then(|| f[0] + f[1] + f[2] + f[5] + f[6] + f[7])
}

/// Indices of the less contended half of each block of `block`
/// consecutive entries of `others` (a trailing partial block counts as
/// one), ascending; of equal values the earlier is kept.  Choosing within
/// blocks keeps the choice spread over the whole window, so a figure that
/// drifts as the window goes on is not biased by where the quiet part fell.
pub fn least_contended(others: &[f64], block: usize) -> Vec<usize> {
    let mut keep = Vec::with_capacity(others.len() / 2 + 1);
    for (b, chunk) in others.chunks(block).enumerate() {
        let mut order: Vec<usize> = (0..chunk.len()).collect();
        order.sort_by(|&x, &y| chunk[x].total_cmp(&chunk[y]).then(x.cmp(&y)));
        order.truncate(chunk.len().div_ceil(2));
        order.sort_unstable();
        keep.extend(order.into_iter().map(|k| b * block + k));
    }
    keep
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the system, then reset this process's
/// resident-memory high-water mark to its current resident size, so
/// [`peak_rss_kib`] reports the peak from here on.  Without the trim, how
/// much of the set-ups' freed memory the allocator happens to keep would
/// set the starting level.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free pages of the C allocator's
    // heaps, which is the global allocator here; live allocations stay.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in KiB.
pub fn peak_rss_kib() -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leco_obs::HistSnapshot;

    #[test]
    fn busy_ticks_leave_out_idle_iowait_and_guest() {
        let stat = "cpu  100 2 30 5000 7 1 4 9 50 0\ncpu0 50 1 15 2500 3 0 2 4 25 0\n";
        assert_eq!(parse_busy_ticks(stat), Some(100 + 2 + 30 + 1 + 4 + 9));
        assert_eq!(parse_busy_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_busy_ticks("cpu  1 2 3\n"), None);
        assert!(machine_busy_secs().expect("linux") > 0.0);
    }

    #[test]
    fn least_contended_keeps_the_quieter_half_of_each_block() {
        let others = [0.5, 0.0, 0.9, 0.1, 0.1, 0.0, 0.3];
        // Blocks [0..4), [4..7): two of the first, two of the second.
        assert_eq!(least_contended(&others, 4), vec![1, 3, 4, 5]);
        // One block: the quietest four of seven, ties to the earlier.
        assert_eq!(least_contended(&others, 7), vec![1, 3, 4, 5]);
        assert_eq!(least_contended(&others, 2), vec![1, 3, 5, 6]);
        assert_eq!(least_contended(&[0.2, 0.1], 1), vec![0, 1]);
        assert!(least_contended(&[], 2).is_empty());
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_value() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50));
        assert_eq!(nearest_rank(&v, 0.95), Some(95));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // ceil(0.5 * 3) = 2nd smallest.
        assert_eq!(nearest_rank(&[10, 20, 30], 0.5), Some(20));
    }

    #[test]
    fn sample_count_rule_needs_ten_samples_past_the_quantile() {
        assert_eq!(min_samples(0.50), 20);
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        let small: Vec<u64> = (0..999).collect();
        assert_eq!(quantile(&small, 0.99), None);
        assert_eq!(quantile(&small, 0.95), Some(949));
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(quantile(&enough, 0.99), Some(989));
    }

    fn even(t1: u64, n: u64) -> Slicing {
        Slicing {
            slices: (0..n).map(|k| (k * t1 / n, (k + 1) * t1 / n - 1)).collect(),
        }
    }

    #[test]
    fn sliced_rate_ignores_a_stalled_slice_and_gaps() {
        let s = even(4_000_000_000, 4);
        // 100/s in three slices, a stall in the second.
        let mut done: Vec<u64> = (0..100).map(|i| i * 10_000_000).collect();
        done.extend((0..100).map(|i| 2_000_000_000 + i * 10_000_000));
        done.extend((0..100).map(|i| 3_000_000_000 + i * 10_000_000));
        done.push(1_500_000_000);
        assert!((s.rate(&done) - 100.0).abs() < 1e-6);
        // Stamps outside every slice count nowhere.
        let gappy = Slicing {
            slices: vec![(0, 99), (200, 299)],
        };
        assert_eq!(gappy.slice_of(150), None);
        assert_eq!(gappy.slice_of(250), Some(1));
        assert_eq!(gappy.slice_of(300), None);
    }

    #[test]
    fn sliced_quantile_takes_the_median_of_groups() {
        let s = even(10_000, 10);
        // 100 samples per slice, latency 10 everywhere except slice 4 (1000).
        let samples: Vec<(u64, u64)> = (0..1000u64)
            .map(|i| (i * 10, if (400..500).contains(&i) { 1000 } else { 10 }))
            .collect();
        // p50 needs 20 per group: one slice per group, median of ten = 10.
        assert_eq!(s.quantile(&samples, 0.5), Some(10));
        // Pooled, the bad slice is exactly the top 10%: p95 = 1000.
        assert_eq!(quantile(&latencies(&samples), 0.95), Some(1000));
        // Sliced: groups of two slices, the bad one spoils one group in five.
        assert_eq!(s.quantile(&samples, 0.95), Some(10));
        // Too few samples for p99.
        assert_eq!(s.quantile(&samples[..999], 0.99), None);
        // Few groups fall back to the pooled quantile.
        assert_eq!(even(10_000, 2).quantile(&samples, 0.95), Some(1000));
        // A cost paid in most slices moves the figure.
        let mostly_slow: Vec<(u64, u64)> = (0..1000u64)
            .map(|i| (i * 10, if i < 600 { 1000 } else { 10 }))
            .collect();
        assert_eq!(s.quantile(&mostly_slow, 0.5), Some(1000));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn snap(counter: u64, gauge: i64, hist: (u64, u64)) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("c".into(), counter);
        s.gauges.insert("g".into(), gauge);
        s.histograms.insert(
            "h".into(),
            HistSnapshot {
                count: hist.0,
                sum: hist.1,
                p50: 0,
                p95: 0,
                p99: 0,
            },
        );
        s
    }

    #[test]
    fn registry_deltas_subtract_and_average() {
        let before = snap(10, 3, (4, 400));
        let after = snap(25, -2, (10, 1000));
        let d = Delta::new(&before, &after);
        assert_eq!(d.counter("c"), 15);
        assert_eq!(d.count("h"), 6);
        assert_eq!(d.sum("h"), 600);
        assert_eq!(d.mean("h"), 100.0);
        assert_eq!(d.gauge_after("g"), -2);
        // Absent metrics read as zero, and a mean over no samples is 0.
        assert_eq!(d.counter("missing"), 0);
        assert_eq!(d.mean("missing"), 0.0);
        // A metric first registered between the snapshots counts in full.
        let mut later = after.clone();
        later.counters.insert("new".into(), 7);
        assert_eq!(Delta::new(&before, &later).counter("new"), 7);
        // Counters never run backwards; a reset reads as no growth.
        assert_eq!(Delta::new(&after, &before).counter("c"), 0);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(mean_us(&[]), 0.0);
        assert_eq!(mean_us(&[1000, 3000]), 2.0);
    }

    #[test]
    fn usage_sees_this_process() {
        let before = usage();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let after = usage();
        assert!(after.cpu_secs > before.cpu_secs);
        assert!(after.ctx_switches > before.ctx_switches);
    }

    #[test]
    fn peak_rss_restarts_from_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_kib().unwrap();
        assert!(with_big >= 64 << 10);
        drop(big);
        reset_peak_rss().unwrap();
        assert!(peak_rss_kib().unwrap() < with_big);
    }
}
