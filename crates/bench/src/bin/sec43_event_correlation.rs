//! §4.3: relating voltage variation to architectural events.
//!
//! The paper's finding: "low L2 cache misses correlates strongly with
//! Gaussian voltage distributions" — windows containing L2 misses are
//! stall/burst mixtures, not Gaussian. This experiment buckets 64-cycle
//! windows by the number of L2 misses they contain and reports, per
//! bucket, the Gaussian acceptance rate (of the current), the mean
//! current variance, and the mean simulated voltage variance.

use didt_bench::{standard_system, Experiment, TextTable};
use didt_stats::chi_squared::{ChiSquaredGof, GofOutcome};
use didt_stats::variance;
use didt_uarch::{capture_trace_with_events, Benchmark};

const WINDOW: usize = 64;

fn main() {
    let mut exp = Experiment::start("sec43_event_correlation");
    exp.param("window", WINDOW as f64);
    let sys = standard_system();
    let pdn = sys.pdn_at(150.0).expect("pdn");
    let test = ChiSquaredGof::new(8)
        .and_then(|gof| gof.prepare(0.95))
        .expect("gof");

    // Buckets by L2 misses per 64-cycle window.
    const BUCKETS: usize = 4;
    let label = |b: usize| match b {
        0 => "0",
        1 => "1",
        2 => "2-3",
        _ => "4+",
    };
    let bucket_of = |misses: u64| match misses {
        0 => 0,
        1 => 1,
        2 | 3 => 2,
        _ => 3,
    };

    let mut accepted = [0usize; BUCKETS];
    let mut tested = [0usize; BUCKETS];
    let mut i_var = [0.0f64; BUCKETS];
    let mut v_var = [0.0f64; BUCKETS];

    println!("== §4.3: window Gaussianity vs L2 misses in the window ==\n");
    for bench in [
        Benchmark::Gzip,
        Benchmark::Gcc,
        Benchmark::Swim,
        Benchmark::Mcf,
        Benchmark::Applu,
        Benchmark::Crafty,
        Benchmark::Art,
        Benchmark::Mesa,
    ] {
        let t = capture_trace_with_events(bench, sys.processor(), 0xD1D7, 100_000, 1 << 17);
        let v = pdn.simulate(&t.trace.samples);
        for (wi, w) in t.trace.samples.chunks_exact(WINDOW).enumerate() {
            let start = wi * WINDOW;
            let b = bucket_of(t.l2_misses_in(start, WINDOW));
            let r = test.test(w).expect("test");
            tested[b] += 1;
            if r.decision == GofOutcome::Accepted {
                accepted[b] += 1;
            }
            i_var[b] += variance(w);
            v_var[b] += variance(&v[start..start + WINDOW]);
        }
    }

    let mut table = TextTable::new(&[
        "L2 misses/window",
        "windows",
        "gaussian",
        "mean I var (A^2)",
        "mean V var (mV^2)",
    ]);
    for b in 0..BUCKETS {
        let n = tested[b].max(1) as f64;
        exp.golden(
            &format!("gaussian_pct.misses_{}", label(b)),
            100.0 * accepted[b] as f64 / n,
        );
        table.row_owned(vec![
            label(b).to_string(),
            format!("{}", tested[b]),
            format!("{:5.1}%", 100.0 * accepted[b] as f64 / n),
            format!("{:8.1}", i_var[b] / n),
            format!("{:8.3}", v_var[b] / n * 1e6),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: windows around L2 misses are the non-Gaussian ones (long stalls");
    println!("followed by activity spikes when the data returns)");
    exp.finish().expect("manifest write");
}
