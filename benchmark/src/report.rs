//! Metric tables, the run outcome, and the two output lines.

use crate::stats::{percentile, tail_percentile, Host, Interval};
use crate::trace::Tracer;

/// End-to-end metrics (`--trace 0`), name and unit, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics (`--trace 1`), name and unit, as `BENCHMARK.json`
/// lists them. A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("apps.generate_s", "s"),
    ("frontiers.build_s", "s"),
    ("decompose.windows_s", "s"),
    ("decompose.windows", "count"),
    ("fixed_lp.build_s", "s"),
    ("fixed_lp.power_rows", "count"),
    ("fixed_lp.ramp_s", "s"),
    ("fixed_lp.ramp_max_window_s", "s"),
    ("fixed_lp.percap_s", "s"),
    ("fixed_lp.ramp_fallback_caps", "count"),
    ("lp.iterations", "count"),
    ("lp.phase1_iterations", "count"),
    ("lp.ramp_steps", "count"),
    ("lp.ramp_breakpoints", "count"),
    ("lp.caps_interpolated", "count"),
    ("lp.refactorizations", "count"),
    ("lp.factor_reuses", "count"),
    ("lp.fill_ratio", "ratio"),
    ("lp.phase_s", "s"),
    ("lp.post_optimal_s", "s"),
    ("lp.s_per_ramp_step", "s"),
    ("lp.canonical_shortfall", "count"),
    ("lp.vertex_divergences", "count"),
    ("sim.static_s", "s"),
    ("sim.conductor_s", "s"),
    ("canon.encode_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.solves", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.lp_iterations", "count"),
    ("serve.lp_factor_reuses", "count"),
    ("serve.lp_warm_rejected", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_wait_p50_ms", "ms"),
    ("bench.assemble_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.coverage", "ratio"),
    ("host.runqueue_wait_s", "s"),
    ("host.steal_s", "s"),
    ("error_rate", "ratio"),
    ("passes", "count"),
];

/// Operations attempted and failed over a run, with what went wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// FNV-1a digest of the run's outputs; equal across runs of one seed.
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One failed operation that has no timed pass behind it.
    pub fn fail(&mut self, note: String) {
        self.add(1, 1);
        self.note(note);
    }

    /// Keeps the first few notes; a run that goes wrong everywhere would
    /// otherwise print one per operation.
    pub fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One pass: wall time, what the scheduler says its threads did, and the
/// CPU time the host took from the machine meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct PassRecord {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub runqueue_wait_s: f64,
    pub steal_s: f64,
}

impl PassRecord {
    pub fn new(iv: Interval) -> PassRecord {
        PassRecord {
            wall_s: iv.wall_s,
            cpu_s: iv.sched.cpu_s,
            runqueue_wait_s: iv.sched.wait_s,
            steal_s: iv.steal_s,
        }
    }
}

/// Everything one workload run measured.
pub struct Run {
    pub outcome: Outcome,
    pub passes: Vec<PassRecord>,
    pub metrics: Vec<Metric>,
    /// Every latency sample, ms: one per request, or per pass on the sweep
    /// workloads, where a pass answers one request for a frontier.
    pub latency_ms: Vec<f64>,
    pub tracer: Tracer,
}

/// A reported number with the samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Looks `name` up in the table it belongs to and builds the metric.
pub fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"));
    Metric { name, unit, value, samples }
}

/// Orders `measured` as `table` lists its metrics; a table metric that was
/// not measured reads 0 with no samples, and a measured one outside the
/// table is dropped.
pub fn select(table: &[(&'static str, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| match measured.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None => Metric { name, unit, value: 0.0, samples: 0 },
        })
        .collect()
}

/// JSON number for `v`; non-finite values have no JSON form and read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one run prints.
pub struct Report<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    pub host: &'a Host,
    pub outcome: &'a Outcome,
    pub passes: &'a [PassRecord],
    pub latency_ms: &'a [f64],
    pub metrics: &'a [Metric],
    pub self_times: &'a [(&'static str, f64)],
    pub trace_file: Option<String>,
}

impl Report<'_> {
    /// A readable table: one metric a line with its unit and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} trace {} — {} of {} operations failed\n",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.outcome.failed,
            self.outcome.attempted
        );
        for m in self.metrics {
            out += &format!("  {:<30} {:>16.6} {:<6} n={}\n", m.name, m.value, m.unit, m.samples);
        }
        for note in &self.outcome.notes {
            out += &format!("  ! {note}\n");
        }
        out
    }

    /// The full record of the run, one JSON object on one line.
    pub fn record_line(&self) -> String {
        let h = self.host;
        let host = format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"loadavg\":{},\"rustc\":{},\"commit\":{}}}",
            h.nproc,
            string(&h.cpu_model),
            string(&h.loadavg),
            string(&h.rustc),
            string(&h.commit)
        );
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                format!(
                    "{{\"wall_s\":{},\"cpu_s\":{},\"runqueue_wait_s\":{},\"steal_s\":{}}}",
                    num(p.wall_s),
                    num(p.cpu_s),
                    num(p.runqueue_wait_s),
                    num(p.steal_s)
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                    string(m.name),
                    num(m.value),
                    string(m.unit),
                    m.samples
                )
            })
            .collect();
        let self_times: Vec<String> =
            self.self_times.iter().map(|(n, s)| format!("{}:{}", string(n), num(*s))).collect();
        let notes: Vec<String> = self.outcome.notes.iter().map(|n| string(n)).collect();
        let digest = self.outcome.digest.map_or("null".into(), |d| format!("\"{d:016x}\""));
        let trace_file = self.trace_file.as_deref().map_or("null".into(), string);
        // The highest percentile this many samples support (ten beyond it).
        let n = self.latency_ms.len();
        let tail = tail_percentile(n).map_or("null".into(), |p| {
            let ms = num(percentile(self.latency_ms, p));
            format!("{{\"percentile\":{p},\"ms\":{ms},\"samples\":{n}}}")
        });
        format!(
            "{{\"record\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{host},\
             \"digest\":{digest},\"attempted\":{},\"failed\":{},\"latency_tail\":{tail},\"passes\":[{}],\
             \"metrics\":[{}],\"self_times_s\":{{{}}},\"trace_file\":{trace_file},\"notes\":[{}]}}}}",
            string(self.workload),
            self.seed,
            u8::from(self.traced),
            self.outcome.attempted,
            self.outcome.failed,
            passes.join(","),
            metrics.join(","),
            self_times.join(","),
            notes.join(",")
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    string(m.name),
                    num(m.value),
                    string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.outcome.failed == 0 && self.outcome.attempted > 0,
            self.outcome.attempted.max(1),
            self.outcome.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let host = Host::probe();
        let outcome = Outcome { attempted: 3, failed: 0, ..Outcome::default() };
        let metrics = select(&END_TO_END, &[metric("pass_s", 1.25, 4)]);
        let report = Report {
            workload: "w",
            seed: 1,
            traced: false,
            host: &host,
            outcome: &outcome,
            passes: &[],
            latency_ms: &[],
            metrics: &metrics,
            self_times: &[],
            trace_file: None,
        };
        let line = report.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"pass_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
