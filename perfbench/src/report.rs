//! Collects one run's metrics and notes, and renders the human-readable
//! block plus the final JSON line.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host;
use crate::ledger::Dist;
use crate::trace::SpanBuf;

/// Where traced runs write their spans, relative to the checkout root.
pub const TRACE_DIR: &str = ".bench_build/perfbench-trace";

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    /// Operations sent: requests, swaps or forward calls.
    pub attempted: u64,
    /// Transport errors, rejections, error replies and oracle mismatches.
    pub failed: u64,
    /// Outputs that differed from the oracle.
    pub mismatches: u64,
    metrics: Vec<(String, f64, String)>,
    withheld: BTreeSet<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            metrics: Vec::new(),
            withheld: BTreeSet::new(),
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn fail_mismatch(&mut self) {
        self.failed += 1;
        self.mismatches += 1;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// `<prefix>.p<NN>` for each percentile that has enough samples
    /// beyond it; the others are recorded as withheld.
    pub fn percentiles(&mut self, prefix: &str, d: &Dist, permilles: &[usize], unit: &str) {
        for &p in permilles {
            let name = format!("{prefix}.p{}", p / 10);
            match d.percentile(p) {
                Some(v) => self.layer(&name, v, unit),
                None => {
                    self.note(format!("{name} withheld: {} samples", d.len()));
                    self.withheld.insert(name);
                }
            }
        }
        self.note(format!("{prefix}: {} samples", d.len()));
    }

    pub fn e2e_setup(&mut self, setups_s: &[f64]) -> Result<(), String> {
        let d = Dist::new(setups_s.to_vec());
        let v = d.percentile(500).ok_or("too few set-ups for a median")?;
        self.layer("setup_s", v, "s");
        self.note(format!("setup_s: p50 of {} set-ups", d.len()));
        Ok(())
    }

    pub fn e2e_latency(&mut self, ms: f64, base: &str) {
        self.layer("latency_ms", ms, "ms");
        self.note(format!("latency_ms: {base}"));
    }

    pub fn e2e_throughput(&mut self, img_per_s: f64, base: &str) {
        self.layer("throughput_img_per_s", img_per_s, "1/s");
        self.note(format!("throughput_img_per_s: {base}"));
    }

    pub fn e2e_rss(&mut self) -> Result<(), String> {
        let mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        self.layer("peak_rss_mb", mb, "MB");
        Ok(())
    }

    /// Writes the spans as JSON lines and reports their count.
    pub fn spans(&mut self, spans: &mut SpanBuf, epoch: Instant) {
        self.layer("trace.spans", spans.len() as f64, "count");
        let path =
            PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        match spans.write_jsonl(&path, epoch) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("spans not written to {}: {e}", path.display())),
        }
    }

    /// The value of a metric recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Prints the human block and returns the final JSON line with
    /// exactly the `wanted` metrics. A wanted end-to-end metric that was
    /// not measured is an error; a wanted per-layer metric the workload
    /// does not exercise (or whose percentile was withheld) reads 0 and
    /// is listed as such.
    pub fn finish(
        &mut self,
        wanted: &[(&str, &str)],
        zero_if_absent: bool,
        host: &[(String, String)],
    ) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let mut picked = Vec::with_capacity(wanted.len());
        let mut absent = Vec::new();
        for &(name, unit) in wanted {
            match self.value(name) {
                Some(v) if v.is_finite() => picked.push((name, v, unit)),
                Some(v) => return Err(format!("{name} is not finite: {v}")),
                None if zero_if_absent => {
                    let why = if self.withheld.contains(name) {
                        "withheld"
                    } else {
                        "not exercised"
                    };
                    absent.push(format!("{name} ({why})"));
                    picked.push((name, 0.0, unit));
                }
                None => return Err(format!("{name} was not measured")),
            }
        }
        println!("# perfbench workload={} seed={}", self.workload, self.seed);
        for (k, v) in host {
            println!("host.{k}: {v}");
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        if !absent.is_empty() {
            println!(
                "note: reported as 0 on this workload: {}",
                absent.join(", ")
            );
        }
        for (name, v, unit) in &picked {
            println!("{name} {v} {unit}");
        }
        println!(
            "failed_frac {} of {} attempts ({} oracle mismatches)",
            crate::ledger::ratio(self.failed as f64, self.attempted as f64),
            self.attempted,
            self.mismatches
        );
        let metrics: Vec<String> = picked
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
