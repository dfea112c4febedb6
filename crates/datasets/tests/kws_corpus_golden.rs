//! Bit-identity golden for the synthetic KWS corpus: FNV-1a digests of every
//! clip's f32 bits followed by the labels. Any change to the harmonic
//! synthesis, the envelope, the noise draws or the per-class split that
//! moves a single PCM bit or label moves a digest. Every KWS golden
//! downstream (MFCC features, trained weights, search outcomes) rests on
//! these bytes.

use solarml_datasets::{KwsDataset, KwsDatasetBuilder};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(corpus: &KwsDataset) -> u64 {
    let clips = (0..corpus.len()).fold(FNV_OFFSET, |h, i| {
        fnv_bytes(
            h,
            corpus
                .clip(i)
                .0
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        )
    });
    fnv_bytes(
        clips,
        corpus
            .labels()
            .iter()
            .flat_map(|&l| (l as u64).to_le_bytes()),
    )
}

fn builder(samples_per_class: usize, seed: u64) -> KwsDatasetBuilder {
    KwsDatasetBuilder {
        samples_per_class,
        seed,
        ..KwsDatasetBuilder::default()
    }
}

fn check(name: &str, corpus: &KwsDataset, want: u64) {
    let got = digest(corpus);
    assert_eq!(got, want, "{name}: digest {got:#018x}");
}

/// The corpus the paper pipeline's KWS context builds.
#[test]
fn pipeline_corpus_is_pinned() {
    check(
        "(12, 0x50AA)",
        &builder(12, 0x50AA).build(),
        0xd5f8_0370_1ce4_5bd7,
    );
}

/// The corpus behind the CLI's quick KWS search.
#[test]
fn cli_quick_corpus_is_pinned() {
    check(
        "(8, 0xA0D10)",
        &builder(8, 0xA0D10).build(),
        0xf1d5_1ec9_dd87_cc6b,
    );
}

/// The default builder with the background noise off: the harmonic stacks
/// alone (the noise draws still advance the RNG but add zero).
#[test]
fn noiseless_corpus_is_pinned() {
    let corpus = KwsDatasetBuilder {
        noise: 0.0,
        ..KwsDatasetBuilder::default()
    }
    .build();
    check("noise 0.0", &corpus, 0x14af_32c5_2100_656d);
}

/// The train and test halves the KWS task context holds.
#[test]
fn pipeline_split_is_pinned() {
    let (train, test) = builder(12, 0x50AA).build().split(0.2);
    assert_eq!((train.len(), test.len()), (100, 20));
    check("train half", &train, 0x66ef_996c_8f86_b9d3);
    check("test half", &test, 0x4c06_2d15_5412_1c09);
}
