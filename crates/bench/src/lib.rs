//! # hybridem-bench
//!
//! Experiment harness: one binary per paper artefact (Fig. 2, Fig. 3,
//! Table 1, Table 2) plus ablation sweeps, and the one timing harness
//! with its paired A/B gate ([`perf`]). Binaries print Markdown tables
//! to stdout and write JSON/PGM artefacts under `results/`.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig2_ber_curves` | Fig. 2 — BER vs SNR for the three receivers |
//! | `fig3_decision_regions` | Fig. 3 — decision regions + centroids before/after retraining |
//! | `table1_adaptation` | Table 1 — phase-offset adaptation BERs |
//! | `table2_hardware` | Table 2 — FPGA implementation comparison |
//! | `campaign` | Fig. 2 as a campaign: waterfall sweep, all receivers × impairments, early stopping |
//! | `drift_runtime` | (ext.) §II-C online: time-varying links through the trigger→retrain→redeploy loop |
//! | `backend_switch` | (ext.) per-link backend switching on an SNR ramp over the backend registry |
//! | `ablation_dop` | (ext.) MVAU folding: DSP ↔ latency ↔ power |
//! | `ablation_quant` | (ext.) bit-width vs BER |
//! | `ablation_grid` | (ext.) extraction-grid resolution |
//! | `ablation_trigger` | (ext.) retrain-trigger detection latency |
//! | `equalizer` | (ext.) blind re-convergence on two-ray ISI |
//! | `perf` | (infra) every timing case: SIMD kernels, the many-link serving grid (workers × batch) and the adaptive FIR; `--against <rev>` gates a change against `<rev>` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use hybridem_mathkit::json::ToJson;
use std::path::{Path, PathBuf};

/// Directory where experiment artefacts are written.
pub(crate) fn results_dir() -> PathBuf {
    let dir = std::env::var("HYBRIDEM_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a serialisable artefact as pretty JSON under `results/`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(name);
    let json = hybridem_mathkit::json::to_string_pretty(value);
    std::fs::write(&path, json).expect("write artefact");
    path
}

/// Writes a text artefact (PGM images, Markdown tables) under `results/`.
pub fn write_text(name: &str, content: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write artefact");
    path
}

/// Pretty banner for experiment binaries.
pub fn banner(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(72));
}

/// Returns true when the caller asked for a reduced-budget run
/// (`HYBRIDEM_QUICK=1`) — used by CI and smoke tests.
pub fn quick_mode() -> bool {
    std::env::var("HYBRIDEM_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Standard experiment budgets, cut by 8× under [`quick_mode`].
pub fn budget(full: u64) -> u64 {
    if quick_mode() {
        (full / 8).max(1)
    } else {
        full
    }
}

/// Per-point symbol cap for campaign runs, from the
/// `HYBRIDEM_CAMPAIGN_TRIALS` environment variable, parsed by the
/// strict shared rule ([`hybridem_mathkit::env::parse_count`]: digits
/// only, ≥ 1; unset or anything else ⇒ `None`, i.e. the campaign's
/// own cap applies). The
/// campaign schedule rounds the cap up to whole blocks, so actual
/// budgets can exceed it by up to `block_len − 1` symbols. CI sets a
/// small value to keep the seeded micro-campaign smoke cheap.
pub fn campaign_symbol_cap() -> Option<u64> {
    std::env::var("HYBRIDEM_CAMPAIGN_TRIALS")
        .ok()
        .as_deref()
        .and_then(hybridem_mathkit::env::parse_count)
}

/// Checks a path exists after writing (sanity for artefact tests).
pub fn assert_written(path: &Path) {
    assert!(path.exists(), "artefact {path:?} missing");
}
