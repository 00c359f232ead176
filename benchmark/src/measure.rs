//! Closed-loop window driver and the statistics the report is built from.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lsm_engine::Storage;

use crate::check::Tally;

/// Length of one slice of the measured window. Throughput and the
/// latency percentiles are taken per slice and the report carries the
/// median slice, which a single compaction burst cannot move.
pub const SLICE: Duration = Duration::from_secs(1);

/// How often the window is sampled for gauges such as stored bytes: often
/// enough to follow the flush-and-compact sawtooth, whose period is a
/// second or less, so its phase at the window's edges does not matter.
pub const TICK: Duration = Duration::from_millis(50);

/// The kind of a client operation; scans and point operations differ
/// in cost by two orders of magnitude, so the layer metrics keep them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

/// One completed client operation.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
    /// Key + value bytes this operation wrote and had acknowledged.
    pub user_bytes: u64,
    /// Rows a scan returned.
    pub rows: u32,
}

/// What one client thread saw during the measured window.
#[derive(Debug, Default)]
struct ClientLog {
    /// One vector per slice of `latency_ns << 2 | kind`, so a sort by
    /// sample is a sort by latency.
    slices: Vec<Vec<u64>>,
    tally: Tally,
    user_bytes: u64,
    scan_rows: u64,
}

/// Latency of one kind of operation over the whole window, pooled.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    pub count: u64,
    pub mean_us: f64,
    pub p99_us: f64,
}

/// The measured window of a closed-loop run.
#[derive(Debug)]
pub struct Window {
    pub tally: Tally,
    pub user_bytes: u64,
    /// Median over slices of operations completed per second.
    pub ops_per_s: f64,
    /// Median over slices of the slice's median latency.
    pub p50_us: f64,
    /// Median over slices of the slice's 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile of the whole window, pooled.
    pub p999_us: f64,
    /// Indexed by [`Kind`].
    pub by_kind: [KindStats; 3],
    pub scan_rows: u64,
    /// Smallest number of samples any slice holds.
    pub min_slice_samples: usize,
}

impl Window {
    /// The six end-to-end metrics of a serving workload, in report order.
    pub fn end_to_end(&self, write_amp: f64, space_amp: f64, setup_s: f64) -> Vec<f64> {
        vec![
            self.ops_per_s,
            self.p50_us,
            self.p99_us,
            write_amp,
            space_amp,
            setup_s,
        ]
    }
}

/// Runs `clients` closed-loop, each on its own thread: `warmup`
/// unmeasured, then `slices` measured slices. `observe` runs on the
/// calling thread: once when the window opens (`Edge::Open`), every
/// [`TICK`] during it (`Edge::Tick`), once when it closes.
pub fn closed_loop<C>(
    clients: Vec<C>,
    warmup: Duration,
    slices: usize,
    mut observe: impl FnMut(Edge),
) -> Window
where
    C: FnMut() -> Done + Send,
{
    let opens = Instant::now() + warmup;
    let closes = opens + SLICE * slices as u32;
    let stop = AtomicBool::new(false);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut log = ClientLog {
                        slices: vec![Vec::new(); slices],
                        ..ClientLog::default()
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let done = client();
                        if done.end < opens {
                            // Warm-up: a failure here is still a failure.
                            if !done.ok {
                                log.tally.record(false);
                            }
                            continue;
                        }
                        if done.end >= closes {
                            break;
                        }
                        let slice = ((done.end - opens).as_nanos() / SLICE.as_nanos()) as usize;
                        let nanos = (done.end - done.start).as_nanos() as u64;
                        log.slices[slice].push(nanos << 2 | done.kind as u64);
                        log.tally.record(done.ok);
                        log.user_bytes += done.user_bytes;
                        log.scan_rows += u64::from(done.rows);
                    }
                    log
                })
            })
            .collect();
        sleep_until(opens);
        observe(Edge::Open);
        let mut next = opens + TICK;
        while next < closes {
            sleep_until(next);
            observe(Edge::Tick);
            next += TICK;
        }
        sleep_until(closes);
        observe(Edge::Close);
        // A client stuck in a long operation ends on its own once that
        // operation completes past `closes`; the flag covers one that
        // would otherwise start another.
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    summarize(logs, slices)
}

/// Where in the window an `observe` call falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    Open,
    Tick,
    Close,
}

fn sleep_until(deadline: Instant) {
    if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

fn summarize(logs: Vec<ClientLog>, slices: usize) -> Window {
    let mut tally = Tally::default();
    let mut user_bytes = 0;
    let mut scan_rows = 0;
    let mut pooled: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for log in logs {
        tally.absorb(log.tally);
        user_bytes += log.user_bytes;
        scan_rows += log.scan_rows;
        for (into, from) in pooled.iter_mut().zip(log.slices) {
            into.extend(from);
        }
    }
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut all = Vec::new();
    let mut min_slice_samples = usize::MAX;
    for slice in &mut pooled {
        slice.sort_unstable();
        min_slice_samples = min_slice_samples.min(slice.len());
        rates.push(slice.len() as f64 / SLICE.as_secs_f64());
        p50s.push(percentile(slice, 0.50));
        p99s.push(percentile(slice, 0.99));
        all.extend_from_slice(slice);
    }
    all.sort_unstable();
    let by_kind = [Kind::Get, Kind::Put, Kind::Scan].map(|kind| {
        let of_kind: Vec<u64> = all
            .iter()
            .copied()
            .filter(|s| s & 3 == kind as u64)
            .collect();
        KindStats {
            count: of_kind.len() as u64,
            mean_us: mean_ns(&of_kind) / 1e3,
            p99_us: percentile(&of_kind, 0.99) / 1e3,
        }
    });
    Window {
        tally,
        user_bytes,
        ops_per_s: median(&mut rates),
        p50_us: median(&mut p50s) / 1e3,
        p99_us: median(&mut p99s) / 1e3,
        p999_us: percentile(&all, 0.999) / 1e3,
        by_kind,
        scan_rows,
        min_slice_samples,
    }
}

/// Nearest-rank latency percentile, in nanoseconds, of ascending
/// `latency_ns << 2 | kind` samples; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    (sorted[rank.clamp(1, sorted.len()) - 1] >> 2) as f64
}

fn mean_ns(samples: &[u64]) -> f64 {
    ratio(
        samples.iter().map(|s| (s >> 2) as f64).sum(),
        samples.len() as f64,
    )
}

/// Median of `values` (mean of the middle two when even), 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is: a layer that did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bytes held by every blob of `storage`. A blob retired by a concurrent
/// compaction between the listing and the length probe counts as gone.
pub fn stored_bytes(storage: &dyn Storage) -> u64 {
    storage
        .list_blobs()
        .iter()
        .filter_map(|name| storage.blob_len(name).ok())
        .sum()
}

/// Write-side counters of this process from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcIo {
    /// `write`-family system calls issued.
    pub syscw: u64,
    /// Bytes passed to them.
    pub wchar: u64,
}

impl ProcIo {
    /// Zeroes where the file is absent (not Linux).
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
                .unwrap_or(0)
        };
        Self {
            syscw: field("syscw:"),
            wchar: field("wchar:"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).map(|ns| ns << 2).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn closed_loop_counts_only_the_window() {
        let client = || {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            Done {
                kind: Kind::Put,
                start,
                end: Instant::now(),
                ok: true,
                user_bytes: 1,
                rows: 0,
            }
        };
        let mut edges = Vec::new();
        let w = closed_loop(vec![client], Duration::from_millis(20), 1, |e| {
            edges.push(e)
        });
        assert_eq!(edges.first(), Some(&Edge::Open));
        assert_eq!(edges.last(), Some(&Edge::Close));
        assert_eq!(w.tally.failed, 0);
        assert!(w.tally.attempted > 100 && w.tally.attempted <= 1000);
        assert_eq!(w.user_bytes, w.tally.attempted);
        assert!(w.p50_us >= 1000.0);
        assert_eq!(w.by_kind[Kind::Put as usize].count, w.tally.attempted);
        assert_eq!(w.by_kind[Kind::Get as usize].count, 0);
    }
}
