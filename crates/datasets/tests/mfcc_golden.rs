//! Bit-identity golden for the KWS front end: FNV-1a digests of the MFCC
//! class datasets at several Table II parameterizations. Any change to
//! framing, the FFT, the mel bank, the DCT or the per-clip standardization
//! that moves a single feature bit moves a digest.

use solarml_datasets::KwsDatasetBuilder;
use solarml_dsp::AudioFrontendParams;

fn fnv_floats<'a>(hash: u64, values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn class_datasets_are_pinned() {
    let corpus = KwsDatasetBuilder {
        samples_per_class: 1,
        ..KwsDatasetBuilder::default()
    }
    .build();
    let cases = [
        ((20, 25, 13), 0x1e2a_70b0_dbdb_03c9),
        ((10, 18, 40), 0xb8aa_a1b6_68d0_b912),
        ((30, 30, 10), 0x8ef1_2441_7799_6668),
        ((13, 29, 27), 0x0287_bb4e_3fec_da89),
    ];
    for ((s, d, f), want) in cases {
        let params = AudioFrontendParams::new(s, d, f).expect("valid params");
        let data = corpus.to_class_dataset(&params);
        let got = data
            .inputs()
            .iter()
            .fold(FNV_OFFSET, |h, t| fnv_floats(h, t.data()));
        assert_eq!(got, want, "s={s} d={d} f={f}: digest {got:#018x}");
    }
}
