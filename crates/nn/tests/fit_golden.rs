//! Bit-identity goldens for training: small specs that together cover every
//! layer kind and kernel path are trained with `fit`, and an FNV-1a digest of
//! the exported weights, the epoch-loss bits and the train-accuracy bits is
//! pinned. Any kernel rewrite must reproduce these digests exactly — a
//! changed summation order anywhere in forward, backward or the optimizer
//! step shows up as a different digest.
//!
//! Coverage: conv with Valid and Same padding, stride 2, a rectangular kernel
//! (the map is narrower than the requested kernel), cin = 1 and cout = 1;
//! depthwise conv at stride 1 and 2; max and avg pooling, including windows
//! wider than the map; norm on a map and on a flat vector; dropout; dense.

use rand::{Rng, SeedableRng};
use solarml_nn::{fit, ClassDataset, LayerSpec, Model, ModelSpec, Padding, Tensor, TrainConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Three-class inputs of `shape`: a class-dependent pattern plus noise, with
/// about one element in eight set to exactly zero so the zero-skip paths run.
fn dataset(shape: [usize; 3], n: usize, seed: u64) -> ClassDataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    let inputs = (0..n)
        .map(|s| {
            let class = s % 3;
            let data = (0..len)
                .map(|i| {
                    if rng.gen_range(0u32..8) == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.7 + class as f32 * 1.9).sin() + rng.gen_range(-0.4f32..0.4)
                    }
                })
                .collect();
            Tensor::from_vec(shape, data)
        })
        .collect();
    ClassDataset::new(inputs, (0..n).map(|s| s % 3).collect(), 3)
}

/// Trains `layers` on a fixed dataset and digests everything training
/// produced.
fn fit_digest(shape: [usize; 3], layers: Vec<LayerSpec>, seed: u64) -> u64 {
    let spec = ModelSpec::new(shape, layers).expect("golden spec is valid");
    let data = dataset(shape, 24, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut model = Model::from_spec(&spec, &mut rng);
    let config = TrainConfig {
        epochs: 3,
        batch_size: 5,
        learning_rate: 0.01,
        weight_decay: 0.001,
    };
    let report = fit(&mut model, &data, &config, &mut rng);
    let mut hash = FNV_OFFSET;
    for tensor in model.export_weights() {
        for w in tensor {
            fnv(&mut hash, &w.to_bits().to_le_bytes());
        }
    }
    for loss in &report.epoch_losses {
        fnv(&mut hash, &loss.to_bits().to_le_bytes());
    }
    fnv(&mut hash, &report.train_accuracy.to_bits().to_le_bytes());
    hash
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: training digest {got:#018x} differs from the pinned {want:#018x}"
    );
}

#[test]
fn conv_valid_maxpool_dense() {
    let got = fit_digest(
        [8, 7, 2],
        vec![
            LayerSpec::conv(4, 3, 1, Padding::Valid),
            LayerSpec::relu(),
            LayerSpec::max_pool(2),
            LayerSpec::flatten(),
            LayerSpec::dense(3),
        ],
        1,
    );
    assert_digest("conv_valid_maxpool_dense", got, 0x00a4_fdfd_3914_dd88);
}

#[test]
fn conv_same_stride2_map_norm_avgpool() {
    let got = fit_digest(
        [9, 6, 3],
        vec![
            LayerSpec::conv(5, 3, 2, Padding::Same),
            LayerSpec::norm(),
            LayerSpec::relu(),
            LayerSpec::avg_pool(2),
            LayerSpec::flatten(),
            LayerSpec::dense(3),
        ],
        2,
    );
    assert_digest(
        "conv_same_stride2_map_norm_avgpool",
        got,
        0x9ca3_c422_529a_bd55,
    );
}

#[test]
fn rectangular_kernels_wide_maxpool_flat_norm_dropout() {
    // Width 2 under a 4-row kernel gives a 4x2 conv kernel; the depthwise
    // 3-kernel then sees width 1; the 3-window max pool is wider than it.
    let got = fit_digest(
        [10, 2, 2],
        vec![
            LayerSpec::conv(3, 4, 1, Padding::Valid),
            LayerSpec::dw_conv(3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::max_pool(3),
            LayerSpec::flatten(),
            LayerSpec::dense(6),
            LayerSpec::norm(),
            LayerSpec::relu(),
            LayerSpec::dropout(0.25),
            LayerSpec::dense(3),
        ],
        3,
    );
    assert_digest(
        "rectangular_kernels_wide_maxpool_flat_norm_dropout",
        got,
        0xab72_0cc4_e9d6_d4e0,
    );
}

#[test]
fn dwconv_stride2_wide_avgpool() {
    // The 4-window avg pool is wider than the 2-column map and leaves the
    // last row out.
    let got = fit_digest(
        [9, 3, 3],
        vec![
            LayerSpec::dw_conv(3, 2, Padding::Same),
            LayerSpec::norm(),
            LayerSpec::relu(),
            LayerSpec::avg_pool(4),
            LayerSpec::flatten(),
            LayerSpec::dense(3),
        ],
        4,
    );
    assert_digest("dwconv_stride2_wide_avgpool", got, 0x099a_4a83_e652_2513);
}

#[test]
fn single_channel_conv_stride2_same() {
    // cin = 1 into cout = 1, then cin = 1 into several filters.
    let got = fit_digest(
        [7, 5, 1],
        vec![
            LayerSpec::conv(1, 2, 2, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::conv(4, 2, 1, Padding::Valid),
            LayerSpec::relu(),
            LayerSpec::flatten(),
            LayerSpec::dense(3),
        ],
        5,
    );
    assert_digest(
        "single_channel_conv_stride2_same",
        got,
        0xd9fe_c3e7_3aea_e5e3,
    );
}

#[test]
fn dwconv_valid_maxpool_conv_dense() {
    let got = fit_digest(
        [10, 8, 4],
        vec![
            LayerSpec::dw_conv(3, 1, Padding::Valid),
            LayerSpec::relu(),
            LayerSpec::max_pool(2),
            LayerSpec::conv(6, 3, 1, Padding::Same),
            LayerSpec::relu(),
            LayerSpec::avg_pool(2),
            LayerSpec::flatten(),
            LayerSpec::dropout(0.1),
            LayerSpec::dense(8),
            LayerSpec::relu(),
            LayerSpec::dense(3),
        ],
        6,
    );
    assert_digest(
        "dwconv_valid_maxpool_conv_dense",
        got,
        0x6c7a_6a11_ea76_023e,
    );
}
