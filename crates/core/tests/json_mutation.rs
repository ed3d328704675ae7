//! Corrupt-artefact robustness of the JSON decoders.
//!
//! Every committed artefact and checkpoint is read back through
//! `Json::parse` followed by a `FromJson` decoder, most of them
//! generated by `impl_json!`. One small instance of each decoded type
//! is serialised, then mutated — truncations, byte flips and 10k-deep
//! nesting at random positions, every field deleted in turn, every
//! number replaced by out-of-range values — and decoding must return
//! `Ok` or `Err`: never panic, never hang. A deleted field must be
//! reported by name.

use hybridem_comm::campaign::{
    run_campaign, CampaignReport, CampaignSpec, ChannelScenario, DemapperFamily, EarlyStop,
};
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::MaxLogMap;
use hybridem_comm::trajectory::{ChannelState, Trajectory};
use hybridem_core::config::SystemConfig;
use hybridem_core::runtime::{
    run_drift_campaign, BackendSwitchReport, DriftCampaignSpec, DriftFamily, DriftRuntimeReport,
    DriftScenario, FamilyRole, LinkParams, OnlineLink, OnlineLinkSpec, SwitchEventRecord,
    SwitchLinkRow,
};
use hybridem_core::server::{AggregateReport, LinkServer, ServerCfg, SessionCfg};
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::json::{FromJson, Json, JsonError, ToJson};
use hybridem_mathkit::matrix::Matrix;
use hybridem_nn::model::{LayerSnapshot, ModelSnapshot};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Parses and decodes `text` as a `T`, then serialises it again.
fn decode<T: ToJson + FromJson>(text: &str) -> Result<String, JsonError> {
    Ok(T::from_json(&Json::parse(text)?)?
        .to_json()
        .to_string_pretty())
}

struct Doc {
    name: &'static str,
    text: String,
    decode: fn(&str) -> Result<String, JsonError>,
}

fn doc<T: ToJson + FromJson>(name: &'static str, value: &T) -> Doc {
    Doc {
        name,
        text: value.to_json().to_string_pretty(),
        decode: decode::<T>,
    }
}

fn campaign() -> CampaignReport {
    let mut spec = CampaignSpec::new(
        vec![DemapperFamily::maxlog_es_n0(Constellation::qam_gray(4))],
        vec![ChannelScenario::awgn_es_n0()],
        vec![4.0],
        3,
    );
    spec.stop = EarlyStop {
        target_bit_errors: 10,
        max_symbols_per_point: 512,
        first_round_symbols: 256,
        growth: 2,
    };
    spec.tasks = 2;
    run_campaign(&spec)
}

fn drift() -> DriftRuntimeReport {
    let qam = Constellation::qam_gray(4);
    let family = DriftFamily {
        name: "maxlog".to_string(),
        role: FamilyRole::Baseline,
        build: Box::new(move |traj, seed| {
            let demapper = Box::new(MaxLogMap::new(qam.clone(), 0.3));
            OnlineLink::fixed(
                OnlineLinkSpec::new(traj.clone(), seed),
                qam.clone(),
                demapper,
            )
        }),
    };
    run_drift_campaign(&DriftCampaignSpec {
        name: "mini".to_string(),
        families: vec![family],
        scenarios: vec![DriftScenario {
            trajectory: Trajectory::constant("awgn", ChannelState::clean(8.0), 2),
            baseline_frames: 1,
            drift_end_frame: 1,
            adaptive_recovers: None,
            frozen_recovers: None,
        }],
        links: 1,
        params: LinkParams::default(),
        seed: 5,
    })
}

fn switch() -> BackendSwitchReport {
    BackendSwitchReport {
        name: "mini-switch".to_string(),
        seed: 7,
        links: 1,
        frames: 2,
        frame_symbols: 16,
        pilot_symbols: 4,
        ber_target: 0.01,
        backends: vec!["precise".to_string(), "cheap".to_string()],
        initial_backend: 0,
        rows: vec![SwitchLinkRow {
            link: 0,
            active: vec![0, 1],
            bit_errors: vec![3, 0],
            downshifts: 1,
            upshifts: 0,
            events: vec![SwitchEventRecord {
                link: 0,
                frame: 0,
                from: 0,
                to: 1,
                est_es_n0_db: 17.25,
                downshift: true,
            }],
        }],
        downshifts: 1,
        upshifts: 0,
    }
}

fn aggregate() -> AggregateReport {
    let qam = Constellation::qam_gray(16);
    let mut server = LinkServer::new(ServerCfg {
        workers: 1,
        ..ServerCfg::default()
    });
    let backend = server.register_backend(qam.clone(), Arc::new(MaxLogMap::new(qam, 0.2)));
    let mut cfg = SessionCfg::new(
        backend,
        Trajectory::constant("awgn", ChannelState::clean(8.0), 1),
        9,
    );
    cfg.frame_symbols = 16;
    cfg.pilot_symbols = 4;
    let id = server.open_session(cfg);
    server.submit(id, 2).unwrap();
    server.serve();
    server.aggregate()
}

fn snapshot() -> ModelSnapshot {
    let quant = LayerSnapshot::FakeQuant {
        spec: QuantSpec {
            format: QFormat::signed(8, 5),
            rounding: Rounding::Nearest,
        },
    };
    ModelSnapshot {
        input_dim: 2,
        layers: vec![
            quant.clone(),
            LayerSnapshot::Dense {
                weight: Matrix::from_vec(2, 2, vec![0.5, -1.25, 2.0, 0.125]),
                bias: Matrix::from_vec(1, 2, vec![0.0, -0.5]),
            },
            LayerSnapshot::Relu,
            quant,
        ],
    }
}

/// One serialised instance of every type the generated decoders read.
fn docs() -> &'static [Doc] {
    static DOCS: OnceLock<Vec<Doc>> = OnceLock::new();
    DOCS.get_or_init(|| {
        vec![
            doc("CampaignReport", &campaign()),
            doc("DriftRuntimeReport", &drift()),
            doc("BackendSwitchReport", &switch()),
            doc("AggregateReport", &aggregate()),
            doc("SystemConfig", &SystemConfig::fast_test()),
            doc("ModelSnapshot", &snapshot()),
        ]
    })
}

/// Byte offsets of every number token.
fn number_starts(text: &str) -> Vec<usize> {
    let b = text.as_bytes();
    (1..b.len())
        .filter(|&i| b[i].is_ascii_digit() || b[i] == b'-')
        .filter(|&i| matches!(b[i - 1], b':' | b'[' | b',' | b' ' | b'\n'))
        .collect()
}

/// Replaces the number token at byte `start` with `with`.
fn replace_number(text: &str, start: usize, with: &str) -> String {
    let len = text[start..]
        .find(|c: char| !"0123456789-+.eE".contains(c))
        .unwrap_or(text.len() - start);
    format!("{}{with}{}", &text[..start], &text[start + len..])
}

/// Applies mutation `kind` to `text`; `at` and `byte` pick where and
/// what.
fn mutate(text: &str, kind: usize, at: u64, byte: u8) -> String {
    let pick = |n: usize| (at % n.max(1) as u64) as usize;
    match kind {
        // Truncation at any byte (invalid UTF-8 tails are replaced).
        0 => String::from_utf8_lossy(&text.as_bytes()[..pick(text.len())]).into_owned(),
        // Byte flips: `byte` at one position, its complement at a
        // second.
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            let n = bytes.len();
            bytes[pick(n)] = byte;
            bytes[(pick(n) * 7 + 13) % n] = !byte;
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // 10k-deep nesting in front of some value.
        _ => {
            let colons: Vec<usize> = text.match_indices(':').map(|(i, _)| i + 1).collect();
            let i = colons.get(pick(colons.len())).copied().unwrap_or(0);
            let nest = format!("{}0{}", "[".repeat(10_000), "]".repeat(10_000));
            format!("{}{nest}{}", &text[..i], &text[i..])
        }
    }
}

/// Every copy of `v` with exactly one object key removed, paired with
/// the removed key.
fn deletions(v: &Json) -> Vec<(Json, String)> {
    let mut out = Vec::new();
    match v {
        Json::Obj(pairs) => {
            for i in 0..pairs.len() {
                let mut cut = pairs.clone();
                let key = cut.remove(i).0;
                out.push((Json::Obj(cut), key));
                for (sub, key) in deletions(&pairs[i].1) {
                    let mut cut = pairs.clone();
                    cut[i].1 = sub;
                    out.push((Json::Obj(cut), key));
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                for (sub, key) in deletions(item) {
                    let mut cut = items.clone();
                    cut[i] = sub;
                    out.push((Json::Arr(cut), key));
                }
            }
        }
        _ => {}
    }
    out
}

#[test]
fn unmutated_documents_round_trip_byte_identically() {
    for d in docs() {
        assert_eq!((d.decode)(&d.text).as_ref(), Ok(&d.text), "{}", d.name);
    }
}

#[test]
fn every_deleted_field_is_reported_by_name() {
    for d in docs() {
        for (tree, key) in deletions(&Json::parse(&d.text).unwrap()) {
            let err = (d.decode)(&tree.to_string_compact()).unwrap_err();
            let want = format!("missing field `{key}`");
            assert!(err.to_string().contains(&want), "{}: {err}", d.name);
        }
    }
}

#[test]
fn out_of_range_numbers_decode_or_fail_cleanly() {
    // Every number of every document, replaced by a huge exponent, 40
    // digits, and edge values; Ok and Err are both fine.
    let forty = "1234567890123456789012345678901234567890";
    for d in docs() {
        for start in number_starts(&d.text) {
            for with in [
                "1e99999",
                "-1e99999",
                forty,
                &format!("-{forty}"),
                "0",
                "4294967296",
            ] {
                let _ = (d.decode)(&replace_number(&d.text, start, with));
            }
        }
    }
}

#[test]
fn corrupt_shapes_and_formats_are_errors() {
    // Regressions: a matrix whose rows × cols overflows, and a
    // fixed-point format the QFormat constructors reject, once
    // panicked inside the decoder instead of failing it.
    let huge = r#"{"rows": 4294967296, "cols": 4294967296, "data": []}"#;
    assert!(Matrix::<f32>::from_json(&Json::parse(huge).unwrap()).is_err());
    let text = docs()[5]
        .text
        .replace("\"total_bits\": 8", "\"total_bits\": 0");
    assert_ne!(text, docs()[5].text, "mutation must apply");
    let err = (docs()[5].decode)(&text).unwrap_err();
    assert!(
        err.to_string().contains("invalid fixed-point format"),
        "{err}"
    );
}

proptest! {
    #[test]
    fn mutated_documents_decode_or_fail_cleanly(
        which in 0usize..6, kind in 0usize..3, at in any::<u64>(), byte in any::<u8>()
    ) {
        let d = &docs()[which];
        let mutated = mutate(&d.text, kind, at, byte);
        // Ok or Err are both fine; a panic fails the test.
        let _ = (d.decode)(&mutated);
    }
}
