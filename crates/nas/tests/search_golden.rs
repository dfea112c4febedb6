//! Bit-identity goldens for whole searches: a quick eNAS run on a tiny
//! gesture context and on a tiny KWS context, digested through
//! `SearchOutcome::to_csv`. Together they pin the dataset front ends (gesture
//! synthesis, MFCC), candidate training and the search trajectory; a kernel
//! or DSP change that moves any output bit moves an accuracy, a chosen
//! candidate or both, and so the digest.

use solarml_nas::{run_enas, EnasConfig, TaskContext};
use solarml_nn::TrainConfig;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn search_digest(mut ctx: TaskContext) -> u64 {
    ctx.train_config = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let outcome = run_enas(
        &ctx,
        &EnasConfig {
            workers: 2,
            ..EnasConfig::quick(0.5)
        },
    );
    fnv(&outcome.to_csv())
}

#[test]
fn gesture_search_history_is_pinned() {
    let got = search_digest(TaskContext::gesture(4, 11));
    assert_eq!(
        got, 0xff4b_f455_cdaf_a266,
        "gesture search digest {got:#018x}"
    );
}

#[test]
fn kws_search_history_is_pinned() {
    let got = search_digest(TaskContext::kws(4, 11));
    assert_eq!(got, 0x7ed8_b4ae_231a_a55b, "kws search digest {got:#018x}");
}
