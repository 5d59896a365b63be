//! Pins what the serving layer records into the telemetry registry.
//!
//! The event loop may batch, defer or fold its registry calls however it
//! likes, as long as a scoped snapshot taken around whole runs stays the
//! same bytes. The golden `tests/golden/serve_telemetry.json` holds the
//! `serve.*` metrics of one fixed scope: two runs of
//! [`ServeConfig::example`] followed by the standard what-if menu at the
//! A11 point. The scope's model-build metrics (`device.*`) are left out
//! of the golden, because how many engines a scope builds is a cost, not
//! an output; the second half of the first test checks that count.

use star_core::{StarSoftmax, StarSoftmaxConfig};
use star_fixed::QFormat;
use star_serve::{run_what_ifs, simulate, ServeConfig, WhatIf};
use star_telemetry::Snapshot;

/// Programmed cells in one MRPC q5.3 engine: CAM/SUB 512 × 18, exp CAM
/// 256 × 16, LUT 256 × 18, VMM 256 × 18.
const MRPC_ENGINE_CELLS: u64 = 22_528;

fn golden_path() -> String {
    format!("{}/tests/golden/serve_telemetry.json", env!("CARGO_MANIFEST_DIR"))
}

/// The fixed scope: two example runs, then the A11 what-if menu.
fn serve_scope() -> Snapshot {
    star_telemetry::with_scoped(|| {
        let cfg = ServeConfig::example();
        simulate(&cfg);
        simulate(&cfg);
        run_what_ifs(&star_bench::experiments::a11_blame_config(), 1, &WhatIf::standard());
    })
    .1
}

/// The snapshot restricted to the serving layer's own metrics.
fn serve_metrics(mut snap: Snapshot) -> Snapshot {
    let serve = |name: &String| name.starts_with("serve.");
    snap.counters.retain(|k, _| serve(k));
    snap.gauges.retain(|k, _| serve(k));
    snap.histograms.retain(|k, _| serve(k));
    snap
}

#[test]
fn serve_telemetry_matches_golden() {
    let snap = serve_scope();
    let got = serde_json::to_string_pretty(&serve_metrics(snap.clone())).expect("serializes");
    let want = std::fs::read_to_string(golden_path()).expect("golden fixture readable");
    assert!(got == want.trim_end(), "serve telemetry drifted from the golden:\n{got}");
    // Three model builds: one per `simulate`, one for the whole menu.
    assert_eq!(snap.counters["device.rram.writes"], 3 * MRPC_ENGINE_CELLS);
}

#[test]
fn engine_build_writes_each_cell_once() {
    let (engine, snap) = star_telemetry::with_scoped(|| {
        StarSoftmax::new(StarSoftmaxConfig::new(QFormat::MRPC)).expect("paper format builds")
    });
    let g = engine.geometry();
    let cells = [g.cam_sub, g.exp_cam, g.lut, g.vmm].iter().map(|a| a.cells() as u64).sum::<u64>();
    assert_eq!(cells, MRPC_ENGINE_CELLS);
    assert_eq!(snap.counters["device.rram.writes"], cells);
}
