//! Corruption gate for the three dump readers: `ServeTrace`,
//! `IncidentDump` and `BlameOutcome::from_object_json`.
//!
//! Each reader gets its dump as the CLI writes it: the golden
//! `incident.json`'s dump, and a trace and a blame dump generated here
//! from `ServeConfig::example()`. Every input is then
//!
//! - truncated at a fixed set of cut points, where each read must
//!   return `Err`;
//! - byte-flipped at fixed offsets and at the string that follows each,
//!   where a read may return either result but must never panic.
//!
//! The cut points and offsets are fixed fractions of the input length,
//! so the gate replays the same inputs on every run.

use serde_json::Value;
use star_serve::{
    simulate_blamed, simulate_with, BlameOutcome, IncidentDump, ServeConfig, ServeTrace, SimOptions,
};

/// Reads a dump from its parsed JSON, dropping the value on success.
type Reader = fn(&Value) -> Result<(), String>;

/// `(name, dump text, reader)` for each of the three dump kinds.
fn dumps() -> Vec<(&'static str, String, Reader)> {
    let cfg = ServeConfig::example();
    let traced = simulate_with(&cfg, &SimOptions { traced: true, ..SimOptions::default() });
    let trace = traced.trace.expect("trace requested").to_object_json();
    let blame = simulate_blamed(&cfg).blame.expect("blame requested").to_object_json();
    let path = format!("{}/tests/golden/incident.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("incident golden readable");
    let golden: Value = serde_json::from_str(&golden).expect("incident golden parses");
    let incident = golden.get("dump").expect("incident golden carries its dump").clone();
    let text = |v: &Value| serde_json::to_string(v).expect("dump serializes");
    vec![
        ("trace", text(&trace), |v| ServeTrace::from_object_json(v).map(drop)),
        ("incident", text(&incident), |v| IncidentDump::from_object_json(v).map(drop)),
        ("blame", text(&blame), |v| BlameOutcome::from_object_json(v).map(drop)),
    ]
}

fn read(text: &str, reader: Reader) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    reader(&v)
}

#[test]
fn dump_readers_reject_truncation_and_survive_byte_flips() {
    for (name, text, reader) in dumps() {
        let len = text.len();
        assert!(read(&text, reader).is_ok(), "{name}: the intact dump must read back");

        let mut cuts: Vec<usize> = vec![0, 1, 2, 17, len - 2, len - 1];
        cuts.extend((1..16).map(|k| len * k / 16));
        for cut in cuts {
            let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c)).expect("0 is a boundary");
            assert!(
                read(&text[..cut], reader).is_err(),
                "{name}: truncated at {cut} of {len} read"
            );
        }

        // Each fixed offset is flipped twice: in place, and at the first
        // byte of the next string, so that some flips leave valid JSON
        // with a renamed key or label for the reader itself to reject.
        // ASCII masks keep the text valid UTF-8.
        for (k, mask) in (0..24).zip([0x01u8, 0x04, 0x20].into_iter().cycle()) {
            let offset = len * k / 24;
            let in_string = text[offset..].find('"').map_or(offset, |q| offset + q + 1);
            for at in [offset, in_string.min(len - 1)] {
                let mut bytes = text.clone().into_bytes();
                bytes[at] ^= mask;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    let _ = read(&flipped, reader);
                }
            }
        }
    }
}
