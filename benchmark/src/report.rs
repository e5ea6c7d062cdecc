//! The ledger's vocabulary — every workload and metric by name, exactly
//! as `BENCHMARK.json` lists them — and the two ways a run speaks: the
//! human table and the driver's one-line result object.

use std::collections::BTreeMap;

/// The five workloads, in the order a full report runs them.
pub const WORKLOADS: [&str; 5] = ["publish", "outofcore", "serve-hot", "serve-cold", "serve-churn"];

/// Measured seconds per run when `--seconds` is absent; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Corpus seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 20180416;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with their regression bounds. Every workload
/// reports every one of them; what `primary_ms`, `secondary_ms` and
/// `cpu_ms_per_op` time on each workload is fixed in the README's
/// end-to-end table and printed beside each value. The bounds are the
/// widest the driver allows because the sandbox's memory system is
/// shared: see the README's noise section for the calibration behind
/// them.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (m("primary_ms", "ms", "lower"), 0.25),
    (m("secondary_ms", "ms", "lower"), 0.25),
    (m("cpu_ms_per_op", "ms", "lower"), 0.25),
    (m("peak_rss_mb", "MiB", "lower"), 0.2),
    (m("setup_s", "s", "lower"), 0.25),
];

/// Per-layer metrics (`--trace 1`). Prefix = module or crate. A layer a
/// workload does not run reports 0. Exact counts repeat bit-for-bit at a
/// fixed seed; `better` on a count or digest only names the direction a
/// table sorts it in.
pub const PER_LAYER: [MetricDef; 57] = [
    // corpus file -> Corpus
    m("corpus.load_s", "s", "lower"),
    m("corpus.load_mb_per_s", "MB/s", "higher"),
    m("corpus.file_bytes", "bytes", "lower"),
    // Corpus -> decayed citation CSR
    m("sgraph.csr_build_s", "s", "lower"),
    m("sgraph.edges", "count", "lower"),
    // QRank engine
    m("qrank.engine_build_s", "s", "lower"),
    m("qrank.solve_s", "s", "lower"),
    m("qrank.outer_iterations", "count", "lower"),
    m("qrank.twpr_iterations", "count", "lower"),
    m("qrank.restore_s", "s", "lower"),
    // ScoreIndex
    m("index.build_s", "s", "lower"),
    m("index.top_ns", "ns", "lower"),
    m("index.render_ns", "ns", "lower"),
    m("index.detail_ns", "ns", "lower"),
    // SNAPv1 / WALv1
    m("snapshot.write_s", "s", "lower"),
    m("snapshot.bytes", "bytes", "lower"),
    m("snapshot.load_s", "s", "lower"),
    m("wal.append_ms", "ms", "lower"),
    // SCOLv1 store, SCSRv1 shards, partitioned power iteration
    m("colstore.open_s", "s", "lower"),
    m("colstore.bytes", "bytes", "lower"),
    m("sgraph.mmap_csr.build_edges_per_s", "1/s", "higher"),
    m("sgraph.mmap_csr.file_bytes", "bytes", "lower"),
    m("sgraph.mmap_csr.shards", "count", "lower"),
    m("rank.twpr.iterations", "count", "lower"),
    m("rank.twpr.final_residual", "l1", "lower"),
    m("rank.twpr.edge_gathers_per_s", "1/s", "higher"),
    m("rank.twpr.computed_gb_per_s", "GB/s", "higher"),
    // numerics fingerprints: a change is a numerics change
    m("outofcore.score_digest", "count", "lower"),
    m("publish.topk_digest", "count", "lower"),
    // request path, in-process over the workload's own request bytes
    m("http.parse_ns", "ns", "lower"),
    m("router.respond_ns", "ns", "lower"),
    m("sjson.render_ns", "ns", "lower"),
    // client-side view of the server
    m("serve.cache_miss_share", "ratio", "lower"),
    m("serve.lookup_render_share", "ratio", "lower"),
    m("serve.loop_us", "us", "lower"),
    m("serve.p99_us", "us", "lower"),
    m("serve.p999_us", "us", "lower"),
    m("serve.samples", "count", "higher"),
    m("serve.rps_depth1", "1/s", "higher"),
    m("serve.rps_depth8", "1/s", "higher"),
    m("serve.client_cpu_us_per_req", "us", "lower"),
    m("serve.resp_bytes_per_req", "bytes", "lower"),
    m("serve.seg_iqr_share", "ratio", "lower"),
    m("metrics.requests", "count", "higher"),
    // reindexer, replayed call by call with the server idle
    m("reindex.grow_corpus_s", "s", "lower"),
    m("reindex.extend_s", "s", "lower"),
    m("swap.publish_us", "us", "lower"),
    m("reindex.publishes", "count", "higher"),
    m("reindex.read_p50_during_publish_us", "us", "lower"),
    m("reindex.read_p50_idle_us", "us", "lower"),
    m("recovery.restart_s", "s", "lower"),
    m("recovery.replayed_batches", "count", "lower"),
    // the traced run's own end-to-end values, for the overhead delta
    m("trace.primary_ms", "ms", "lower"),
    m("trace.secondary_ms", "ms", "lower"),
    m("trace.cpu_ms_per_op", "ms", "lower"),
    m("trace.spans", "count", "lower"),
    m("run.pinned", "count", "higher"),
];

/// One end-to-end value as a workload measured it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Repetitions or segments the median was taken over.
    pub samples: usize,
    /// What this metric timed on this workload.
    pub what: &'static str,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human report.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Measured>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human report (sizes, tail latency, …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `Err` describes why it failed.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                self.fail(why);
                false
            }
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn measured(&mut self, name: &'static str, value: f64, samples: usize, what: &'static str) {
        self.end_to_end.push(Measured { name, value, samples, what });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|d| d.name == name), "unlisted layer metric {name}");
        self.per_layer.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn end_to_end_value(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Correct = no operation failed and every end-to-end metric was
    /// measured as a positive finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && END_TO_END.iter().all(|(d, _)| {
                self.end_to_end_value(d.name).is_some_and(|v| v.is_finite() && v > 0.0)
            })
    }

    /// The driver's result object: `end_to_end` metrics untraced,
    /// `per_layer` metrics traced; always every listed name.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|d| metric_json(d, self.per_layer.get(d.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(d, _)| metric_json(d, self.end_to_end_value(d.name).unwrap_or(0.0)))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human table for this run.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("-- {workload} ({}) --", if traced { "traced" } else { "untraced" });
        for line in &self.notes {
            println!("  {line}");
        }
        let unit =
            |name: &str| END_TO_END.iter().find(|(d, _)| d.name == name).map(|(d, _)| d.unit);
        for e in &self.end_to_end {
            println!(
                "  {:<16} {:>14} {:<4} n={:<3} {}",
                e.name,
                format!("{:.4}", e.value),
                unit(e.name).unwrap_or(""),
                e.samples,
                e.what
            );
        }
        let share =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "  {:<16} {:>14} ratio      {} failed of {}",
            "failed_share", share, self.failed, self.attempted
        );
        for why in &self.failures {
            println!("  FAILED: {why}");
        }
        if traced {
            println!("  per-layer (0 = layer not run on this workload):");
            for d in PER_LAYER.iter() {
                let v = self.per_layer.get(d.name).copied().unwrap_or(0.0);
                if v != 0.0 {
                    println!("    {:<36} {:>18} {}", d.name, json_number(v), d.unit);
                }
            }
        }
    }
}

fn metric_json(def: &MetricDef, value: f64) -> String {
    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", def.name, json_number(value), def.unit)
}

/// A finite `f64` with all its digits as a JSON number; anything else
/// (a bug upstream) as 0 so the line stays parseable and `correct`
/// carries the verdict.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// FNV-1a over `bytes`, kept to 52 bits so it survives a JSON number.
pub fn digest52(bytes: impl IntoIterator<Item = u8>) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h ^ (h >> 52)) & ((1 << 52) - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_outcome() -> Outcome {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for (d, _) in END_TO_END.iter() {
            o.measured(d.name, 1.25, 3, "test");
        }
        o
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let mut o = full_outcome();
        o.layer("http.parse_ns", 412.5);
        for traced in [false, true] {
            let line = o.result_line(traced);
            let v = sjson::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(v.get("attempted").unwrap().as_u64(), Some(10));
            let names: Vec<&str> = v
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|d| d.name).collect()
            } else {
                END_TO_END.iter().map(|(d, _)| d.name).collect()
            };
            assert_eq!(names, want);
        }
        let parse = sjson::parse(&o.result_line(true)).unwrap();
        let m = parse.get("metrics").unwrap().get("http.parse_ns").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(412.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ns"));
    }

    #[test]
    fn a_failed_or_unmeasured_run_is_not_correct() {
        assert!(full_outcome().correct());
        let mut failed = full_outcome();
        assert!(!failed.check(Err("body mismatch".into())));
        assert!(!failed.correct());
        assert_eq!((failed.attempted, failed.failed), (11, 1));
        let missing = Outcome { attempted: 1, ..Outcome::default() };
        assert!(!missing.correct(), "no metrics measured");
        let mut zero = full_outcome();
        zero.end_to_end[0].value = 0.0;
        assert!(!zero.correct(), "an end-to-end metric must never read 0");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn digest_is_stable_and_exact_in_a_double() {
        let d = digest52(*b"scholar");
        assert_eq!(d, digest52(*b"scholar"));
        assert_ne!(d, digest52(*b"scholas"));
        assert!(d < (1u64 << 52) as f64 && d.fract() == 0.0);
    }

    /// `BENCHMARK.json` is written by hand to the driver's contract; this
    /// keeps it and the tables above from drifting apart, and re-checks
    /// the contract's own limits.
    #[test]
    fn benchmark_json_matches_the_tables_and_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let v = sjson::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let strings = |key: &str| -> Vec<String> {
            v.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(v.get("run_seconds").unwrap().as_u64(), Some(DEFAULT_SECONDS));

        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let field = |o: &sjson::Value, k: &str| o.get(k).unwrap().as_str().unwrap().to_string();
        let mut seen = std::collections::BTreeSet::new();

        let workloads = v.get("workloads").unwrap().as_array().unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            assert_eq!(w.as_object().unwrap().len(), 2);
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert!(name_ok(&field(w, "name")) && seen.insert(field(w, "name")));
        }

        let e2e = v.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, (def, bound)) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(got.as_object().unwrap().len(), 4);
            assert_eq!(field(got, "name"), def.name);
            assert_eq!(field(got, "unit"), def.unit);
            assert_eq!(field(got, "better"), def.better);
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(*bound));
            assert!(*bound > 0.0 && *bound <= 0.25);
            assert!(name_ok(def.name) && unit_ok(def.unit) && seen.insert(def.name.to_string()));
        }
        let setup = END_TO_END.iter().find(|(d, _)| d.name == "setup_s").expect("setup_s listed");
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1), "setup_s carries the largest bound");

        let layers = v.get("per_layer").unwrap().as_array().unwrap();
        assert!(layers.len() <= 128);
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, def) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(got.as_object().unwrap().len(), 3);
            assert_eq!(field(got, "name"), def.name);
            assert_eq!(field(got, "unit"), def.unit);
            assert_eq!(field(got, "better"), def.better);
            assert!(name_ok(def.name) && unit_ok(def.unit) && seen.insert(def.name.to_string()));
            assert!(["lower", "higher"].contains(&def.better));
        }
    }
}
