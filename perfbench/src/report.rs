//! The metric schema and the one-line result every run ends with.

use std::collections::BTreeMap;

use obs::json::Value;

/// End-to-end metrics `(name, unit)`, reported by every untraced run of
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("refuted_frac", "ratio"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// a workload does not exercise reads 0 (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tir.parse_ms", "ms"),
    ("tir.cmds", "count"),
    ("pta.solve_ms", "ms"),
    ("pta.modref_ms", "ms"),
    ("pta.propagations", "count"),
    ("pta.nodes", "count"),
    ("pta.edit_propagations", "count"),
    ("serve.phase_edit_ms", "ms"),
    ("serve.phase_pta_ms", "ms"),
    ("android.find_alarms_ms", "ms"),
    ("android.alarms", "count"),
    ("null.candidate_sites_ms", "ms"),
    ("null.sites", "count"),
    ("symex.search_ms", "ms"),
    ("symex.edges", "count"),
    ("symex.path_programs", "count"),
    ("symex.cmds_executed", "count"),
    ("symex.subsumed", "count"),
    ("symex.loop_fixpoints", "count"),
    ("symex.us_per_path_program", "us"),
    ("symex.fork_budget_aborts", "count"),
    ("symex.ladder_retries", "count"),
    ("symex.ladder_rescue_ratio", "ratio"),
    ("solver.calls", "count"),
    ("solver.ms", "ms"),
    ("solver.sat_frac", "ratio"),
    ("persist.hit_ratio", "ratio"),
    ("persist.store_bytes", "bytes"),
    ("persist.records_dropped", "count"),
    ("serve.daemon_ms_p50", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.phase_symex_ms", "ms"),
    ("serve.phase_cache_ms", "ms"),
    ("serve.edit_ms_p50", "ms"),
    ("serve.edit_ms_p90", "ms"),
    ("obs.unattributed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (triages, site verdicts, daemon requests).
    pub attempted: u64,
    /// Operations that errored, were shed, panicked, timed out, or
    /// contradicted ground truth.
    pub failed: u64,
    /// Whole-run checks (totals against ground truth) that failed.
    pub check_failures: Vec<String>,
    /// Metric values by name. `None` marks a percentile withheld for too
    /// few samples; it is left out of the result line.
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Samples behind each percentile metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Time of every untraced pass at the reference host speed, seconds
    /// (`pass_s` is their median).
    pub passes_s: Vec<f64>,
    /// Wall time of every untraced pass, seconds.
    pub raw_passes_s: Vec<f64>,
    /// Every host-speed probe time of the untraced run, nanoseconds.
    pub probes_ns: Vec<u64>,
    /// Probes of the untraced run voided by a daemon's work.
    pub probes_voided: usize,
    /// Every peak RSS measured, MiB (`peak_rss_mb` is their median).
    pub peaks_mb: Vec<f64>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Some(value));
    }

    /// Sets percentile metric `name`, in milliseconds, from a guarded
    /// percentile of `samples_ns`, recording its sample count; a withheld
    /// percentile stays out of the result.
    pub fn set_percentile(&mut self, name: &'static str, samples_ns: &[u64], q: f64) {
        self.samples.insert(name, samples_ns.len());
        let ms = crate::stats::percentile(samples_ns, q).map(|ns| ns as f64 / 1e6);
        self.metrics.insert(name, ms);
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// True when no operation failed and every whole-run check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `schema` in schema order. Per-layer metrics a workload did not
    /// set read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set: every workload
    /// measures all of them.
    pub fn result_line(&self, traced: bool) -> String {
        let schema = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in schema {
            let value = match self.metrics.get(name) {
                Some(Some(v)) => *v,
                Some(None) => continue,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            metrics.push((
                name.to_owned(),
                Value::Obj(vec![
                    ("value".to_owned(), Value::Float(value)),
                    ("unit".to_owned(), Value::str(unit)),
                ]),
            ));
        }
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::uint(self.attempted)),
            ("failed".to_owned(), Value::uint(self.failed)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ])
        .to_json()
    }

    /// Sample counts, pass times at the reference speed and wall times,
    /// peak RSS values, probe-time quartiles and failed checks, printed
    /// before the result line.
    pub fn detail_line(&self) -> String {
        let samples =
            self.samples.iter().map(|(k, v)| (k.to_string(), Value::uint(*v as u64))).collect();
        let checks = self.check_failures.iter().map(|c| Value::str(c.clone())).collect();
        let floats = |v: &[f64]| Value::Arr(v.iter().map(|&s| Value::Float(s)).collect());
        let probes = [("p25", 0.25), ("p50", 0.5), ("p75", 0.75)]
            .into_iter()
            .map(|(k, q)| {
                let ns = crate::stats::percentile(&self.probes_ns, q).unwrap_or(0);
                (k.to_owned(), Value::uint(ns))
            })
            .chain([
                ("n".to_owned(), Value::uint(self.probes_ns.len() as u64)),
                ("voided".to_owned(), Value::uint(self.probes_voided as u64)),
            ])
            .collect();
        Value::Obj(vec![
            ("samples".to_owned(), Value::Obj(samples)),
            ("passes_s".to_owned(), floats(&self.passes_s)),
            ("wall_passes_s".to_owned(), floats(&self.raw_passes_s)),
            ("peaks_mb".to_owned(), floats(&self.peaks_mb)),
            ("probe_ns".to_owned(), Value::Obj(probes)),
            ("failed_checks".to_owned(), Value::Arr(checks)),
        ])
        .to_json()
    }
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_follows_the_schema() {
        let mut r = Report { attempted: 3, ..Report::default() };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set_percentile("verdict_ms_p90", &[1, 2], 0.9);
        let line = obs::json::parse(&r.result_line(false)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").expect("metrics");
        assert!(metrics.get("verdict_ms_p90").is_none(), "withheld for too few samples");
        assert_eq!(metrics.get("pass_s").and_then(|m| m.get("unit")), Some(&Value::str("s")));
        let traced = obs::json::parse(&r.result_line(true)).expect("valid JSON");
        let Some(Value::Obj(per_layer)) = traced.get("metrics") else { panic!("metrics") };
        assert_eq!(per_layer.len(), PER_LAYER.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
