//! Quickstart: the paper's Figure 3 worked example, end to end.
//!
//! Decomposes a small signal with the Haar wavelet, prints the
//! coefficient matrix (paper Figure 2), reconstructs the subbands
//! (Figure 3) and verifies they sum back to the signal, then shows the
//! whole machinery on one real simulated current window.
//!
//! Run with: `cargo run --release --example quickstart`

use didt_core::DidtSystem;
use didt_dsp::{dwt, subband_decompose, WaveletFamily};
use didt_uarch::{capture_trace, Benchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: the paper's 8-sample example ------------------------
    let signal = [4.0, 2.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0];
    println!("signal: {signal:?}\n");

    let decomp = dwt(&signal, WaveletFamily::Haar, 2)?;
    println!("coefficient matrix (orthonormal Haar):");
    println!("  a[k]    = {:?}", rounded(decomp.approximation()));
    println!(
        "  d[2][k] = {:?}  (coarse details)",
        rounded(decomp.detail(2)?)
    );
    println!(
        "  d[1][k] = {:?}  (fine details)\n",
        rounded(decomp.detail(1)?)
    );

    let bands = subband_decompose(&decomp)?;
    println!("subband signals (approximation first, then fine → coarse):");
    for (i, band) in bands.iter().enumerate() {
        println!("  band {i}: {:?}", rounded(band));
    }
    let sum: Vec<f64> = (0..signal.len())
        .map(|t| bands.iter().map(|b| b[t]).sum())
        .collect();
    println!("  sum   : {:?}  (= original signal)\n", rounded(&sum));
    for (a, b) in signal.iter().zip(&sum) {
        assert!((a - b).abs() < 1e-9);
    }

    // --- Part 2: a real current window -------------------------------
    let sys = DidtSystem::standard()?;
    let trace = capture_trace(Benchmark::Gzip, sys.processor(), 7, 50_000, 256);
    let decomp = dwt(&trace.samples, WaveletFamily::Haar, 8)?;
    println!("gzip 256-cycle current window:");
    println!("  mean current   : {:.1} A", trace.mean_current());
    let scales = didt_dsp::scale_variances(&decomp)?;
    println!("  variance by wavelet scale (span in cycles → A²):");
    for sv in &scales {
        println!(
            "    span {:>3}: {:8.3}  (adjacent-coeff corr {:+.2})",
            sv.span, sv.variance, sv.adjacent_correlation
        );
    }
    let pdn = sys.pdn_at(150.0)?;
    println!(
        "\nPDN resonance {:.0} MHz = {:.0}-cycle period: the span-16/32 rows are the dI/dt danger zone",
        pdn.resonant_frequency() / 1e6,
        pdn.resonant_period_cycles()
    );
    Ok(())
}

fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
