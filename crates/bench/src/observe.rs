//! Observability wiring for the experiment binaries.
//!
//! Every `src/bin/` experiment wraps its work in an [`Experiment`]:
//! construction installs a span collector and starts the wall clock,
//! the recording methods fold sweep results, cache activity and golden
//! numbers into a [`RunManifest`], and [`Experiment::finish`] snapshots
//! the metrics registry plus span aggregates and writes the manifest
//! JSON under `results/manifests/` (override the directory with
//! `DIDT_MANIFEST_DIR`). The manifest path is echoed to *stderr* so the
//! binaries' stdout tables stay byte-stable for diffing.
//!
//! The split between deterministic and timing fields matters here: see
//! [`didt_telemetry::manifest`] for which fields the serial/parallel
//! determinism guarantee covers.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use didt_telemetry::{
    install_collector, seed_to_hex, CollectorGuard, Json, MemoryCollector, MetricsRegistry,
    PointRecord, RunManifest, SchedCounterRecord, SubRun,
};

use crate::runner::{ExperimentRunner, PointResult, RunParams, Sweep, SweepContext};
use crate::steal::SchedReport;

/// One observed experiment run: a [`RunManifest`] under construction
/// plus the process-global span collector for its duration.
#[derive(Debug)]
pub struct Experiment {
    manifest: RunManifest,
    collector: Arc<MemoryCollector>,
    _guard: CollectorGuard,
    started: Instant,
}

impl Experiment {
    /// Start observing the experiment named `name` (also the manifest
    /// file stem): installs a span collector and stamps git SHA,
    /// creation time and the environment-resolved thread count.
    #[must_use]
    pub fn start(name: &str) -> Self {
        let collector = MemoryCollector::new();
        let guard = install_collector(collector.clone());
        let mut manifest = RunManifest::new(name);
        manifest.threads = crate::runner::default_threads();
        Experiment {
            manifest,
            collector,
            _guard: guard,
            started: Instant::now(),
        }
    }

    /// Record the actual runner configuration (thread count, serial).
    pub fn runner(&mut self, runner: &ExperimentRunner, serial: bool) {
        self.manifest.threads = runner.threads();
        self.manifest.serial = serial;
    }

    /// Record the sweep grid axes.
    pub fn grid(&mut self, sweep: &Sweep) {
        self.manifest.grid = sweep.grid_axes();
    }

    /// Record the shared closed-loop run parameters.
    pub fn run_params(&mut self, run: RunParams) {
        self.param("instructions", run.instructions as f64);
        self.param("warmup_cycles", run.warmup_cycles as f64);
    }

    /// Record one scalar run parameter.
    pub fn param(&mut self, name: &str, value: f64) {
        self.manifest.params.push((name.to_string(), value));
    }

    /// Append sweep results (with per-point durations from
    /// [`SweepContext::run_sweep_timed`]). `durations` may be shorter
    /// than `results` (missing entries record zero).
    pub fn points(&mut self, results: &[PointResult], durations: &[Duration]) {
        let base = self.manifest.points.len();
        for (i, r) in results.iter().enumerate() {
            let duration_ms = durations.get(i).map_or(0.0, |d| d.as_secs_f64() * 1e3);
            self.manifest.points.push(PointRecord {
                index: base + i,
                benchmark: r.point.benchmark.name().to_string(),
                pdn_pct: r.point.pdn_pct,
                monitor_terms: r.point.monitor_terms,
                controller: r.point.controller.tag().to_string(),
                seed_hex: seed_to_hex(r.seed),
                cycles: r.controlled.cycles,
                emergencies: r.controlled.emergencies(),
                baseline_emergencies: r.baseline.emergencies(),
                false_positive_rate: r.controlled.false_positive_rate(),
                slowdown_pct: r.slowdown_pct(),
                v_min: r.controlled.v_min,
                duration_ms,
            });
        }
    }

    /// Record the context's calibration-cache fill/hit statistics
    /// (replacing any earlier snapshot — call after the last sweep).
    pub fn cache(&mut self, ctx: &SweepContext) {
        self.manifest.cache = ctx.cache_activity();
    }

    /// Record one named golden number.
    pub fn golden(&mut self, name: &str, value: f64) {
        self.manifest.golden.push((name.to_string(), value));
    }

    /// Record one child experiment of an umbrella run.
    pub fn subrun(&mut self, name: &str, ok: bool, secs: f64) {
        self.manifest.subruns.push(SubRun {
            name: name.to_string(),
            ok,
            secs,
        });
    }

    /// Record the runner's scheduler counters for this run (timing
    /// fields — excluded from the non-timing fingerprint): its steal
    /// hits, then one busy time per worker. Replaces any earlier
    /// snapshot; call with the accumulated [`SchedReport`] after the
    /// last sweep. Counter names pass through the manifest interning
    /// table so the manifest stays lossless.
    pub fn scheduler(&mut self, report: &SchedReport) {
        let intern = |name: &str| {
            didt_telemetry::intern_scheduler_counter(name)
                .expect("scheduler counter missing from interning table")
        };
        let busy = intern(crate::steal::WORKER_BUSY_NS_HISTOGRAM);
        self.manifest.scheduler = std::iter::once(SchedCounterRecord {
            name: intern(crate::steal::STEAL_HITS_COUNTER),
            value: report.steal_hits,
        })
        .chain(report.worker_busy_ns.iter().map(|&ns| SchedCounterRecord {
            name: busy,
            value: ns,
        }))
        .collect();
    }

    /// Read access to the manifest built so far.
    #[must_use]
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// Seal the manifest — metrics snapshot, span aggregates, total
    /// wall clock — write it to the manifest directory, and echo the
    /// path to stderr. Returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers treat a manifest they
    /// cannot write as a failed run).
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.manifest.wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.manifest.metrics = Some(MetricsRegistry::global().snapshot());
        self.manifest.spans = Some(span_stats_json(&self.collector));
        let path = self.manifest.write()?;
        eprintln!("manifest: {}", path.display());
        Ok(path)
    }
}

/// Render a collector's per-name aggregates as a JSON object
/// (`name -> {count, total_ms, max_ms}`), sorted by span name.
fn span_stats_json(collector: &MemoryCollector) -> Json {
    Json::Obj(
        collector
            .stats()
            .into_iter()
            .map(|(name, stat)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(stat.count as f64)),
                        ("total_ms", Json::Num(stat.total_ns as f64 / 1e6)),
                        ("max_ms", Json::Num(stat.max_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ControllerSpec, Sweep, SweepContext};
    use didt_uarch::Benchmark;

    #[test]
    fn experiment_builds_and_writes_a_manifest() {
        let dir = std::env::temp_dir().join(format!("didt-observe-test-{}", std::process::id()));
        // The default directory is env-controlled; write explicitly to
        // keep this test race-free against other suites.
        let ctx = SweepContext::standard().unwrap();
        let sweep = Sweep::new()
            .benchmarks(&[Benchmark::Gzip])
            .pdn_pcts(&[150.0])
            .controllers(&[ControllerSpec::None]);
        let run = RunParams {
            instructions: 500,
            warmup_cycles: 200,
        };
        let runner = ExperimentRunner::serial();
        let mut exp = Experiment::start("observe_unit_test");
        exp.runner(&runner, true);
        exp.grid(&sweep);
        exp.run_params(run);
        let (results, durations) = ctx.run_sweep_timed(&runner, &sweep.points(), run);
        exp.points(&results, &durations);
        exp.cache(&ctx);
        exp.golden("answer", 42.0);

        let manifest = exp.manifest();
        assert_eq!(manifest.points.len(), 1);
        assert_eq!(manifest.points[0].benchmark, "gzip");
        assert_eq!(manifest.points[0].controller, "none");
        assert!(manifest
            .cache
            .iter()
            .any(|c| c.name == "baselines" && c.computed == 1));
        // The span collector saw the sweep run.
        assert!(exp.collector.count("sweep.point") >= 1);

        let mut sealed = exp;
        sealed.manifest.wall_ms = 1.0; // finish() would stamp this
        let path = sealed.manifest.write_to_dir(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunManifest::from_json_str(&text).unwrap();
        assert_eq!(back.points[0].seed_hex, sealed.manifest.points[0].seed_hex);
        std::fs::remove_dir_all(&dir).ok();
    }
}
