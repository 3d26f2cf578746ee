//! Metric names, units and the result lines a run prints.
//!
//! A run prints two JSON lines on stdout. The first is the full record:
//! provenance, every metric the run measured, sample counts and notes.
//! The last is the result: `correct`, `attempted`, `failed` and the
//! metrics of the run's kind (end-to-end without `--trace`, per-layer
//! with it), each as `{"value", "unit"}`.

use crate::measure::Samples;
use std::fmt::Write as _;

/// End-to-end metrics: what a client of the system observes. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "ops/s"),
    ("query_mean_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_record", "B"),
];

/// Per-layer metrics, reported by the traced run. A metric whose layer
/// or operation a workload does not exercise reads 0 and is named in
/// the full record's `not_exercised` list.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Client operations: query quantiles, and the operations only some
    // workloads issue.
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("link_probes_per_s", "probes/s"),
    ("link_p50_ms", "ms"),
    ("link_p90_ms", "ms"),
    ("ingest_records_per_s", "records/s"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("connect_p50_ms", "ms"),
    ("failed_ratio", "ratio"),
    // pprl-encoding
    ("encoding.records", "count"),
    ("encoding.us_per_record", "us"),
    // pprl-session
    ("session.handshakes", "count"),
    ("session.handshake_p50_ms", "ms"),
    ("session.seal_open_us_per_frame", "us"),
    ("session.frame_bytes", "B"),
    // pprl-server: wire, front end, service and cache
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("wire.codec_us_per_request", "us"),
    ("frontend.residual_p50_us", "us"),
    ("frontend.busy_rejected", "count"),
    ("service.p50_us", "us"),
    ("service.p99_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.generations", "count"),
    // pprl-index: scan
    ("index.scan_us_per_query", "us"),
    ("index.scan_us_per_link_probe", "us"),
    ("index.rows_per_s", "rows/s"),
    ("index.segments_skipped_ratio", "ratio"),
    ("index.bytes_read", "B"),
    // pprl-index: store and compaction
    ("index.insert_us_per_record", "us"),
    ("index.flush_ms", "ms"),
    ("index.compact_s", "s"),
    ("index.compactions", "count"),
    ("index.write_amp", "ratio"),
    ("index.segments_live", "count"),
    // pprl-cluster
    ("cluster.coord_p50_ms", "ms"),
    ("cluster.shard_rtt_p50_ms", "ms"),
    ("cluster.shard_rtt_p99_ms", "ms"),
    ("cluster.slowest_shard_p50_ms", "ms"),
    ("cluster.merge_us", "us"),
    ("cluster.shard_failures", "count"),
    ("cluster.degraded_replies", "count"),
    // the harness itself
    ("bench.gen_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("check.wrong_answers", "count"),
];

/// Where a result came from: enough to tell two hosts or two builds
/// apart when comparing numbers.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub revision: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Kernel-relevant CPU features.
    pub cpu_features: Vec<&'static str>,
    /// The scan kernel the program dispatched to.
    pub kernel: &'static str,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Whether sizes were shrunk for a quick pass.
    pub smoke: bool,
}

impl Provenance {
    /// Provenance of this process on this host.
    pub fn detect(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            revision,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: pprl_similarity::kernel::cpu_features(),
            kernel: pprl_similarity::kernel::active_kernel().name(),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            smoke,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Sample counts behind the quantiles, by name.
    pub samples: Vec<(&'static str, usize)>,
    /// Per-layer metrics this workload does not exercise.
    pub not_exercised: Vec<&'static str>,
    /// Free-form notes for the full record.
    pub notes: Vec<String>,
    /// Wall seconds of the run's phases (generation, set-ups, windows,
    /// checks), for budgeting runs.
    pub phases: Vec<(&'static str, f64)>,
    /// Operations attempted (client operations plus oracle checks).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub errors: u64,
    /// Answers the oracle found wrong.
    pub wrong: u64,
    /// Invariant violations other than per-answer mismatches (e.g. a
    /// record count that does not add up).
    pub broken: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("`{name}` is not a declared metric"))
}

impl Report {
    /// Sets a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Marks per-layer metrics as not exercised by this workload: each
    /// reads 0 and is listed in the full record.
    pub fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
            if !self.not_exercised.contains(&name) {
                self.not_exercised.push(name);
            }
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records how many samples a quantile rests on.
    pub fn count(&mut self, name: &'static str, n: usize) {
        self.samples.retain(|(s, _)| *s != name);
        self.samples.push((name, n));
    }

    /// Sets quantile metrics from `samples` and records the count each
    /// rests on. A tail quantile needs enough samples beyond it (1 000
    /// in all for a p99, 100 for a p90); one that has fewer is still
    /// reported, with a note saying so.
    pub fn quantiles(&mut self, samples: &Samples, metrics: &[(&'static str, f64)]) {
        for &(name, q) in metrics {
            self.set(name, samples.quantile_ms(q));
            self.count(name, samples.len());
            let needed = (10.0 / (1.0 - q)).round() as usize;
            if q > 0.5 && samples.len() < needed {
                self.notes.push(format!(
                    "{name} rests on {} samples, fewer than the {needed} it needs",
                    samples.len()
                ));
            }
        }
    }

    /// Records the wall seconds of a phase that began at `started`.
    pub fn phase(&mut self, name: &'static str, started: std::time::Instant) {
        self.phases.push((name, started.elapsed().as_secs_f64()));
    }

    /// Failed operations: errors plus wrong answers, plus one per
    /// broken invariant.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.broken.len() as u64
    }

    /// True when nothing failed and every answer was right.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted > 0
    }

    /// The declared metrics of one kind that this report lacks.
    pub fn missing(&self, kind: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        kind.iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// The full record line.
    pub fn record_line(&self, prov: &Provenance) -> String {
        let mut s = String::from("{\"servebench\": {");
        let _ = write!(
            s,
            "\"revision\": {}, \"nproc\": {}, \"cpu_features\": [{}], \"kernel\": {}, \
             \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, ",
            quote(&prov.revision),
            prov.nproc,
            prov.cpu_features
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", "),
            quote(prov.kernel),
            quote(&prov.workload),
            prov.seed,
            prov.seconds,
            prov.trace,
            prov.smoke,
        );
        s.push_str("\"metrics\": {");
        s.push_str(
            &self
                .values
                .iter()
                .map(|&(n, v)| format!("{}: {}", quote(n), metric_json(v, unit_of(n))))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("}, \"samples\": {");
        s.push_str(
            &self
                .samples
                .iter()
                .map(|(n, c)| format!("{}: {c}", quote(n)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("}, \"phases\": {");
        s.push_str(
            &self
                .phases
                .iter()
                .map(|(n, secs)| format!("{}: {secs:.3}", quote(n)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        let list = |items: &mut dyn Iterator<Item = String>| {
            items.map(|i| quote(&i)).collect::<Vec<_>>().join(", ")
        };
        let _ = write!(
            s,
            "}}, \"not_exercised\": [{}], \"broken\": [{}], \"notes\": [{}], \
             \"attempted\": {}, \"errors\": {}, \"wrong\": {}}}}}",
            list(&mut self.not_exercised.iter().map(|n| n.to_string())),
            list(&mut self.broken.iter().cloned()),
            list(&mut self.notes.iter().cloned()),
            self.attempted,
            self.errors,
            self.wrong,
        );
        s
    }

    /// The result line: the metrics of one kind only. Panics if one is
    /// missing, which is a bug in the workload.
    pub fn result_line(&self, trace: bool) -> String {
        let kind = if trace { PER_LAYER } else { END_TO_END };
        let missing = self.missing(kind);
        assert!(missing.is_empty(), "metrics not measured: {missing:?}");
        let metrics = kind
            .iter()
            .map(|&(n, u)| {
                let v = self.get(n).expect("checked above");
                format!("{}: {}", quote(n), metric_json(v, u))
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed()
        )
    }
}

fn metric_json(v: f64, unit: &str) -> String {
    format!("{{\"value\": {v}, \"unit\": {}}}", quote(unit))
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
