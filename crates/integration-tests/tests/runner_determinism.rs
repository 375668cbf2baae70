//! The experiment runner's core contracts: serial and parallel sweeps
//! are bit-identical, results depend on point identity (never execution
//! order), and shared cache entries compute exactly once under
//! concurrency. How much wall-clock time the pool buys is measured by
//! `perfbench --workload sweep --trace 1` (`runner.busy_fraction`), not
//! asserted here.

use std::sync::Arc;

use didt_bench::{
    ControllerSpec, ExperimentRunner, MemoCache, PointResult, RunParams, Sweep, SweepContext,
    SweepPoint,
};
use didt_uarch::Benchmark;

const RUN: RunParams = RunParams {
    instructions: 3_000,
    warmup_cycles: 1_000,
};

const WAVELET: ControllerSpec = ControllerSpec::WaveletThreshold {
    low: 0.975,
    high: 1.025,
    hysteresis: 0.004,
    delay: 1,
};

fn grid() -> Vec<SweepPoint> {
    Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
        .pdn_pcts(&[125.0, 150.0])
        .monitor_terms(&[13])
        .controllers(&[ControllerSpec::None, WAVELET])
        .points()
}

#[test]
fn serial_and_parallel_sweeps_bit_identical() {
    let points = grid();
    let serial =
        SweepContext::standard()
            .unwrap()
            .run_sweep(&ExperimentRunner::serial(), &points, RUN);
    // Fresh context per run: nothing carried over but the code path.
    for threads in [2, 4] {
        let parallel = SweepContext::standard().unwrap().run_sweep(
            &ExperimentRunner::with_threads(threads),
            &points,
            RUN,
        );
        // PointResult is all plain numbers; == is bitwise on the floats.
        assert_eq!(serial, parallel, "threads {threads}");
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let points = grid();
    let runner = ExperimentRunner::with_threads(4);
    let a = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    let b = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    assert_eq!(a, b);
}

#[test]
fn results_depend_on_point_identity_not_grid_order() {
    let mut points = grid();
    let ctx = SweepContext::standard().unwrap();
    let runner = ExperimentRunner::with_threads(3);
    let forward: Vec<PointResult> = ctx.run_sweep(&runner, &points, RUN);
    points.reverse();
    let mut backward = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    backward.reverse();
    assert_eq!(forward, backward);
}

#[test]
fn memo_cache_computes_exactly_once_under_concurrency() {
    let cache: Arc<MemoCache<u32, Vec<f64>>> = Arc::new(MemoCache::new());
    std::thread::scope(|s| {
        for t in 0..12 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..40 {
                    let key = u32::from((t + i) % 3 == 0);
                    let v = cache.get_or_compute(key, || {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                        vec![f64::from(key); 8]
                    });
                    assert_eq!(v.len(), 8);
                }
            });
        }
    });
    assert_eq!(cache.len(), 2);
    assert_eq!(
        cache.computations(),
        2,
        "a key's value was computed more than once"
    );
    // Shard-summed counters stay coherent under the same interleaving:
    // every one of the 12*40 requests is accounted for, hits are the
    // non-computing remainder, and contention (however much the host
    // produced) never inflates the compute count.
    assert_eq!(cache.requests(), 12 * 40);
    assert_eq!(cache.hits(), 12 * 40 - 2);
    assert!(cache.contended() <= cache.requests());
}

/// Compute-once must also hold when many *distinct* keys land across
/// shards at once — the sharded map must not duplicate a slot while two
/// threads race to insert it into the same shard.
#[test]
fn memo_cache_computes_exactly_once_across_shards() {
    const KEYS: u32 = 64;
    let cache: Arc<MemoCache<u32, u64>> = Arc::new(MemoCache::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for round in 0..4 {
                    for i in 0..KEYS {
                        // Different starting offsets per thread so shard
                        // locks are hit in conflicting orders.
                        let key = (i + t * 17 + round) % KEYS;
                        let v = cache.get_or_compute(key, || u64::from(key) * 3);
                        assert_eq!(*v, u64::from(key) * 3);
                    }
                }
            });
        }
    });
    assert_eq!(cache.len(), KEYS as usize);
    assert_eq!(
        cache.computations(),
        KEYS as usize,
        "a key's value was computed more than once"
    );
    assert_eq!(cache.requests(), 8 * 4 * KEYS as usize);
}

#[test]
fn context_artifacts_compute_once_across_workers() {
    let ctx = SweepContext::standard().unwrap();
    // Hammer the same design and PDN from many threads at once.
    let designs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || ctx.monitor_design(150.0, 256).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for d in &designs[1..] {
        assert!(Arc::ptr_eq(&designs[0], d), "workers must share one design");
    }
    let stats = ctx.cache_stats();
    assert_eq!(stats.designs, 1);
    assert_eq!(stats.pdns, 1);

    // A full sweep over one (benchmark, impedance) cell with several
    // controllers must simulate the uncontrolled baseline exactly once.
    let points = Sweep::new()
        .benchmarks(&[Benchmark::Gzip])
        .pdn_pcts(&[150.0])
        .monitor_terms(&[13])
        .controllers(&[
            ControllerSpec::None,
            WAVELET,
            ControllerSpec::AnalogThreshold {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::PipelineDamping {
                window: 15,
                max_delta: 6.0,
            },
        ])
        .points();
    let results = ctx.run_sweep(&ExperimentRunner::with_threads(4), &points, RUN);
    assert_eq!(results.len(), 4);
    assert_eq!(
        ctx.cache_stats().baselines,
        1,
        "cell baseline must be shared"
    );
    for r in &results {
        assert_eq!(r.baseline, results[0].baseline);
    }
}
