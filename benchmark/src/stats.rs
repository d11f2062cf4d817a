//! Sample summaries, per-thread CPU accounting and the host record.

use std::time::Instant;

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentiles a tail is reported at, in tenths of a percent, highest first.
const TAIL_CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples of `n` that lie strictly beyond the percentile `tenths / 10`.
fn beyond(n: usize, tenths: usize) -> usize {
    n - (n * tenths).div_ceil(1000)
}

/// The highest percentile in [`TAIL_CANDIDATES`] with at least ten of `n`
/// samples strictly beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&t| beyond(n, t) >= 10).map(|t| t as f64 / 10.0)
}

/// On-CPU and run-queue-wait time of a set of threads, from
/// `/proc/<pid>/task/<tid>/schedstat` (first two fields, nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedTimes {
    pub cpu_s: f64,
    pub wait_s: f64,
}

impl SchedTimes {
    /// Sums the counters of every live thread of this process. Threads that
    /// exit between two snapshots drop out of the second one, so callers
    /// snapshot while every thread doing the measured work is alive.
    pub fn process() -> SchedTimes {
        let mut total = SchedTimes::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                let t = parse_schedstat(&text);
                total.cpu_s += t.cpu_s;
                total.wait_s += t.wait_s;
            }
        }
        total
    }

    /// `self − earlier`, clamped at zero (a thread that exited in between
    /// would otherwise make the difference negative).
    pub fn since(self, earlier: SchedTimes) -> SchedTimes {
        SchedTimes {
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
            wait_s: (self.wait_s - earlier.wait_s).max(0.0),
        }
    }
}

fn parse_schedstat(text: &str) -> SchedTimes {
    let mut fields = text.split_whitespace().map(|f| f.parse::<f64>().unwrap_or(0.0));
    let cpu_ns = fields.next().unwrap_or(0.0);
    let wait_ns = fields.next().unwrap_or(0.0);
    SchedTimes { cpu_s: cpu_ns * 1e-9, wait_s: wait_ns * 1e-9 }
}

/// CPU time the hypervisor took from this virtual machine, all CPUs
/// summed: the `steal` column of `/proc/stat`, in seconds (at the usual
/// 100 ticks a second). 0 where the kernel does not report it.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let cpu = t.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One measured interval: wall seconds plus what the scheduler says the
/// process's threads did meanwhile, and what the host took from the VM.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall_s: f64,
    pub sched: SchedTimes,
    pub steal_s: f64,
}

/// Times `f`, returning its result with the wall and scheduler deltas.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let sched0 = SchedTimes::process();
    let steal0 = host_steal_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let sched = SchedTimes::process().since(sched0);
    let steal_s = (host_steal_s() - steal0).max(0.0);
    (out, Interval { wall_s, sched, steal_s })
}

/// What the run was measured on, so a slow run can be told apart from a
/// regression.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            cpu_model,
            loadavg,
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory only
/// (a benchmark checkout without git history has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // The pick really leaves ≥10 beyond, and the next-higher one does not.
        for n in 20..30_000 {
            let t = (tail_percentile(n).unwrap() * 10.0).round() as usize;
            assert!(beyond(n, t) >= 10, "n={n} t={t}");
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&q| q > t) {
                assert!(beyond(n, higher) <= 9, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn schedstat_parses_nanoseconds() {
        let t = parse_schedstat("1500000000 250000000 42\n");
        assert_eq!(t, SchedTimes { cpu_s: 1.5, wait_s: 0.25 });
    }
}
