//! End-to-end test: one full BERT-base-scale attention layer (all 12
//! heads, seq 64) executed functionally through the STAR engine bank.
//! The engine reads its CAM and LUT stages from per-code tables, so the
//! 768 rows take well under a second even in debug builds, and the test
//! runs with the rest of the suite.

use rand::SeedableRng;
use star::attention::{multi_head_attention, AccuracyReport, AttentionConfig, ExactSoftmax};
use star::core::{EngineBank, RowSoftmax, StarSoftmaxConfig};
use star::fixed::QFormat;
use star::workload::random_matrix;

#[test]
fn bert_base_layer_through_engine_bank() {
    let cfg =
        AttentionConfig { d_model: 768, num_heads: 12, seq_len: 64, num_layers: 1, d_ff: 3072 };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB16);
    let scale = 1.2; // keeps scores inside the 9-bit format after 1/√64
    let q = random_matrix(cfg.seq_len, cfg.d_model, scale, &mut rng);
    let k = random_matrix(cfg.seq_len, cfg.d_model, scale, &mut rng);
    let v = random_matrix(cfg.seq_len, cfg.d_model, scale, &mut rng);

    let exact = multi_head_attention(&cfg, &q, &k, &v, &mut ExactSoftmax::new()).expect("shapes");
    let mut bank = EngineBank::new(StarSoftmaxConfig::new(QFormat::MRPC).with_max_row_len(64), 10)
        .expect("bank builds");
    let star = multi_head_attention(&cfg, &q, &k, &v, &mut bank).expect("shapes");

    let probs = AccuracyReport::compare(&exact.probs, &star.probs);
    let ctx = AccuracyReport::compare(&exact.context, &star.context);
    assert!(probs.mean_abs_error < 5e-3, "prob error {}", probs.mean_abs_error);
    assert!(probs.mean_cosine_similarity > 0.995, "cosine {}", probs.mean_cosine_similarity);
    assert!(ctx.max_abs_error < 0.2, "context error {}", ctx.max_abs_error);
    assert_eq!(bank.fault_events(), 0);
    // All 12 heads × 64 rows dispatched round-robin: the bank wrapped many
    // times.
    assert_eq!(bank.next_unit(), (12 * 64) % 10);
    let _ = bank.name();
}
