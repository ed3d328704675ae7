//! **Ablation — quantisation width.** How many bits do the deployed
//! demapper's weights/activations need? Sweep the deployment width and
//! measure the BER of the *quantised* ANN inference against the f32
//! reference — the design decision behind the paper's fixed-point HLS
//! implementation.
//!
//! Both arms run the same code the rest of the workspace deploys: the
//! quantised arm is the shared integer IR (`fpga::graph`, DESIGN.md
//! §9) compiled per width by `build_inference_design`, slotted into
//! the link simulator directly as a `Demapper` — no per-binary
//! adapter, no per-symbol f32 round trips.

use hybridem_bench::{banner, budget, write_json};
use hybridem_comm::channel::{Awgn, Channel};
use hybridem_comm::linksim::{simulate_link, LinkSpec};
use hybridem_core::config::SystemConfig;
use hybridem_core::pipeline::HybridPipeline;
use hybridem_fixed::QFormat;
use hybridem_fpga::builder::{build_inference_design, DeployConfig};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::Xoshiro256pp;

struct QuantRow {
    bits: u32,
    ber_quantised: f64,
    ber_float: f64,
    penalty_pct: f64,
}

hybridem_mathkit::impl_json!(QuantRow {
    bits,
    ber_quantised,
    ber_float,
    penalty_pct,
});

fn main() {
    banner(
        "Ablation — fixed-point width vs BER of the deployed demapper ANN",
        "design decision behind the paper's §II-B HLS implementation",
    );
    let mut cfg = SystemConfig::paper_default();
    cfg.e2e_steps = budget(4000) as usize;
    let sigma = cfg.sigma();
    let symbols = budget(400_000);

    let mut pipe = HybridPipeline::new(cfg);
    let _ = pipe.e2e_train();
    let constellation = pipe.constellation();

    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let calibration: Vec<_> = (0..2048)
        .map(|i| {
            let p = constellation.point(i % 16);
            C32::new(
                p.re + sigma * rng.normal_f32(),
                p.im + sigma * rng.normal_f32(),
            )
        })
        .collect();

    let channel = Awgn::from_es_n0_db(pipe.config().es_n0_db());
    let float_spec = LinkSpec::new(
        &constellation,
        &channel as &dyn Channel,
        pipe.ann_demapper(),
        symbols,
        17,
    );
    let ber_float = simulate_link(&float_spec).ber();

    let mut rows = Vec::new();
    for bits in [4u32, 5, 6, 8, 10, 12] {
        let dcfg = DeployConfig {
            weight_bits: bits,
            act_bits: bits.max(4),
            input_format: QFormat::signed(bits.max(6), bits.max(6) - 3),
            ..DeployConfig::default()
        };
        let design = build_inference_design(pipe.ann_demapper().model(), &calibration, &dcfg);
        // The compiled integer graph IS the demapper under test.
        let hw = design.graph();
        let spec = LinkSpec::new(&constellation, &channel as &dyn Channel, hw, symbols, 17);
        let ber = simulate_link(&spec).ber();
        rows.push(QuantRow {
            bits,
            ber_quantised: ber,
            ber_float,
            penalty_pct: 100.0 * (ber / ber_float - 1.0),
        });
        eprintln!(
            "{bits:2} bits → BER {ber:.4e} ({:+.1}% vs float)",
            100.0 * (ber / ber_float - 1.0)
        );
    }

    println!("\n| weight/act bits | BER (quantised) | BER (f32) | penalty |");
    println!("|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:.4e} | {:.4e} | {:+.1}% |",
            r.bits, r.ber_quantised, r.ber_float, r.penalty_pct
        );
    }

    let path = write_json("ablation_quant.json", &rows);
    println!("\nartefact: {path:?}");
    println!("\nShape: 8-bit deployment (the paper's class of fixed point) is");
    println!("essentially free; below ~6 bits the demapper decays rapidly.");
}
