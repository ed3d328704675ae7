//! **Ablation — degree of parallelism (DOP).** The paper: the FINN
//! layers "allow for flexible adjustment of the degree of parallelism
//! (DOP) which enables to trade-off between latency and power
//! consumption". Sweep the MVAU folding of the 16×16 hidden layer and
//! report DSP / II / latency / power.

use hybridem_bench::{banner, write_json};
use hybridem_fixed::QFormat;
use hybridem_fpga::mvau::{Folding, HwActivation, Mvau, MvauConfig};
use hybridem_fpga::power::PowerModel;
use hybridem_mathkit::matrix::Matrix;

struct DopRow {
    simd: usize,
    pe: usize,
    dsp: u64,
    lut: u64,
    ii_cycles: u64,
    depth_cycles: u64,
    latency_ns: f64,
    throughput_msym_s: f64,
    power_w: f64,
    energy_per_input_nj: f64,
}

hybridem_mathkit::impl_json!(DopRow {
    simd,
    pe,
    dsp,
    lut,
    ii_cycles,
    depth_cycles,
    latency_ns,
    throughput_msym_s,
    power_w,
    energy_per_input_nj,
});

fn main() {
    banner(
        "Ablation — MVAU folding (DOP): latency/power trade-off",
        "Ney, Hammoud, Wehn (IPDPSW'22), §II-B (FINN DOP discussion)",
    );
    let clock_mhz = 150.0;
    let fmt = QFormat::signed(8, 6);
    let weight = Matrix::zeros(16, 16);
    let bias = Matrix::zeros(1, 16);
    let power = PowerModel::default();

    let mut rows = Vec::new();
    for &(simd, pe) in &[(1usize, 1usize), (2, 2), (4, 4), (8, 8), (16, 4), (16, 16)] {
        let cfg = MvauConfig {
            in_dim: 16,
            out_dim: 16,
            folding: Folding::new(pe, simd),
            weight_format: fmt,
            in_format: fmt,
            out_format: fmt,
            writable_weights: true,
        };
        let m = Mvau::from_dense(cfg, &weight, &bias, HwActivation::Relu);
        let r = m.resources();
        let ii = m.config().ii_cycles();
        let depth = m.config().depth_cycles();
        let p = power.power_w(&r, clock_mhz, 1.0);
        let thr = clock_mhz * 1e6 / ii as f64;
        rows.push(DopRow {
            simd,
            pe,
            dsp: r.dsp,
            lut: r.lut,
            ii_cycles: ii,
            depth_cycles: depth,
            latency_ns: depth as f64 / clock_mhz * 1e3,
            throughput_msym_s: thr / 1e6,
            power_w: p,
            energy_per_input_nj: p / thr * 1e9,
        });
    }

    println!("\n| SIMD | PE | DSP | LUT | II [cyc] | latency [ns] | throughput [Msym/s] | power [W] | energy [nJ/input] |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.2} | {:.4} | {:.3} |",
            r.simd,
            r.pe,
            r.dsp,
            r.lut,
            r.ii_cycles,
            r.latency_ns,
            r.throughput_msym_s,
            r.power_w,
            r.energy_per_input_nj
        );
    }

    // The invariant behind the trade-off: DSP × II = MAC count.
    println!("\nDSP·II invariant (≈256 = the layer's MAC count):");
    for r in &rows {
        println!(
            "  simd={:2} pe={:2}: DSP·II = {}",
            r.simd,
            r.pe,
            r.dsp * r.ii_cycles
        );
    }

    let path = write_json("ablation_dop.json", &rows);
    println!("\nartefact: {path:?}");
    println!("\nShape: parallelism buys throughput linearly in DSP while power");
    println!("rises almost proportionally — energy per input stays within a");
    println!("band, so DOP is a latency↔power knob, exactly the paper's claim.");
}
