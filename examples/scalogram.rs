//! Scalogram explorer (paper Figure 4).
//!
//! Captures a current window from any benchmark and prints its Haar
//! scalogram, showing how the current's frequency content is localized
//! in time — bursts light up the fine scales right where they happen,
//! memory stalls leave coarse-scale-only stripes.
//!
//! Run with: `cargo run --release --example scalogram [name] [cycles]`

use didt_core::DidtSystem;
use didt_dsp::{dwt, Scalogram, WaveletFamily};
use didt_uarch::{capture_trace, Benchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let cycles: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(512);
    if !cycles.is_power_of_two() || cycles < 16 {
        return Err("cycles must be a power of two >= 16".into());
    }
    let bench: Benchmark = name.parse()?;

    let sys = DidtSystem::standard()?;
    let trace = capture_trace(bench, sys.processor(), 0xD1D7, 120_000, cycles);
    println!(
        "{name}: {cycles} cycles, current {:.1}-{:.1} A (mean {:.1} A)\n",
        trace.samples.iter().copied().fold(f64::INFINITY, f64::min),
        trace
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max),
        trace.mean_current()
    );
    let levels = (cycles.trailing_zeros() as usize).min(8);
    let decomp = dwt(&trace.samples, WaveletFamily::Haar, levels)?;
    let sg = Scalogram::from_decomposition(&decomp);
    print!("{}", sg.render());
    println!(
        "\nrows: scale 1 = 2-cycle features ... scale {levels} = {}-cycle features",
        1 << levels
    );
    println!("darker cells = larger detail coefficients (more current change at that time/scale)");
    Ok(())
}
