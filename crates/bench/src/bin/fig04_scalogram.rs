//! Figure 4: current waveform and scalogram for a 256-cycle gzip window.
//!
//! Reproduces the paper's illustrative figure: a current window with
//! visible multi-scale structure, and the Haar scalogram showing how its
//! frequency content is localized in time.

use didt_bench::{standard_system, Experiment};
use didt_dsp::{dwt, Scalogram, WaveletFamily};
use didt_uarch::{capture_trace, Benchmark};

fn main() {
    let mut exp = Experiment::start("fig04_scalogram");
    let sys = standard_system();
    // The paper shows one 256-cycle gzip window.
    let trace = capture_trace(Benchmark::Gzip, sys.processor(), 0xD1D7_2004, 150_000, 256);
    println!("== Figure 4: gzip current waveform + scalogram (256 cycles) ==\n");

    // Render the waveform as a coarse ASCII strip chart (4 cycles/char).
    let min = trace.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = trace
        .samples
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "current range: {min:.1} A .. {max:.1} A, mean {:.1} A",
        trace.mean_current()
    );
    exp.golden("current_min_a", min);
    exp.golden("current_max_a", max);
    exp.golden("current_mean_a", trace.mean_current());
    let rows = 12;
    let cols = 64;
    let per_col = trace.samples.len() / cols;
    let mut grid = vec![vec![' '; cols]; rows];
    for (c, chunk) in trace.samples.chunks(per_col).take(cols).enumerate() {
        let avg: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let level = if max > min {
            ((avg - min) / (max - min) * (rows - 1) as f64).round() as usize
        } else {
            0
        };
        grid[rows - 1 - level][c] = '*';
    }
    for row in grid {
        println!("|{}|", row.iter().collect::<String>());
    }

    println!("\nscalogram (darker = larger |detail coefficient|):\n");
    let decomp = dwt(&trace.samples, WaveletFamily::Haar, 8).expect("256 = 2^8");
    let sg = Scalogram::from_decomposition(&decomp);
    print!("{}", sg.render());
    println!("\npaper: large-scale variation visible; frequency content changes over time");
    exp.golden("decomposition_energy", decomp.energy());
    exp.finish().expect("manifest write");
}
