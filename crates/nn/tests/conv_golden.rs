//! Golden tests: the optimized conv kernels must agree bit for bit with the
//! naive reference implementations (`solarml_nn::reference`) across random
//! rectangular-kernel / padded / strided cases and the edge cases of the
//! tap-outer loop order (one input channel, one filter, stride 2 with Same
//! padding, a kernel wider than the input). Both sides keep the same
//! per-element summation order, so every forward and backward output —
//! including the input gradient — must match exactly.

use rand::{Rng, SeedableRng};
use solarml_nn::layers::{Conv2d, DwConv2d};
use solarml_nn::{reference, Padding, Tensor};

fn random_input(rng: &mut impl Rng, h: usize, w: usize, c: usize) -> Tensor {
    Tensor::from_vec(
        [h, w, c],
        (0..h * w * c)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

/// Gradient tensor with ~30% exact zeros so the skip-zero fast path runs.
fn random_grad(rng: &mut impl Rng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect(),
    )
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One conv case: `[h, w, cin]` input, `kh × kw` kernel, `cout` filters.
struct ConvCase {
    h: usize,
    w: usize,
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: Padding,
}

fn check_conv(case: &ConvCase, rng: &mut impl Rng, label: &str) {
    let ConvCase {
        h,
        w,
        cin,
        cout,
        kh,
        kw,
        stride,
        padding,
    } = *case;
    let mut layer = Conv2d::standalone(cin, cout, kh, kw, stride, padding, rng);
    let input = random_input(rng, h, w, cin);
    let weights = layer.weights().to_vec();
    let bias = layer.bias().to_vec();

    let mut got = Tensor::zeros([1]);
    layer.forward_into(&input, &mut got);
    let want =
        reference::conv2d_forward(&input, &weights, &bias, kh, kw, cin, cout, stride, padding);
    assert_eq!(got.shape(), want.shape(), "{label}: forward shape");
    assert_eq!(bits(got.data()), bits(want.data()), "{label}: forward");

    let grad_out = random_grad(rng, got.shape());
    let mut grad_in = Tensor::zeros([1]);
    layer.backward_into(&input, &grad_out, Some(&mut grad_in));
    let (want_gi, want_gw, want_gb) = reference::conv2d_backward(
        &input, &grad_out, &weights, kh, kw, cin, cout, stride, padding,
    );
    assert_eq!(
        bits(grad_in.data()),
        bits(want_gi.data()),
        "{label}: grad_in"
    );
    assert_eq!(
        bits(layer.grad_weights()),
        bits(&want_gw),
        "{label}: grad_weights"
    );
    assert_eq!(
        bits(layer.grad_bias()),
        bits(&want_gb),
        "{label}: grad_bias"
    );
}

fn check_dwconv(case: &ConvCase, rng: &mut impl Rng, label: &str) {
    let ConvCase {
        h,
        w,
        cin: c,
        kh,
        kw,
        stride,
        padding,
        ..
    } = *case;
    let mut layer = DwConv2d::standalone(c, kh, kw, stride, padding, rng);
    let input = random_input(rng, h, w, c);
    let weights = layer.weights().to_vec();
    let bias = layer.bias().to_vec();

    let mut got = Tensor::zeros([1]);
    layer.forward_into(&input, &mut got);
    let want = reference::dwconv2d_forward(&input, &weights, &bias, kh, kw, c, stride, padding);
    assert_eq!(got.shape(), want.shape(), "{label}: forward shape");
    assert_eq!(bits(got.data()), bits(want.data()), "{label}: forward");

    let grad_out = random_grad(rng, got.shape());
    let mut grad_in = Tensor::zeros([1]);
    layer.backward_into(&input, &grad_out, Some(&mut grad_in));
    let (want_gi, want_gw, want_gb) =
        reference::dwconv2d_backward(&input, &grad_out, &weights, kh, kw, c, stride, padding);
    assert_eq!(
        bits(grad_in.data()),
        bits(want_gi.data()),
        "{label}: grad_in"
    );
    assert_eq!(
        bits(layer.grad_weights()),
        bits(&want_gw),
        "{label}: grad_weights"
    );
    assert_eq!(
        bits(layer.grad_bias()),
        bits(&want_gb),
        "{label}: grad_bias"
    );
}

fn random_case(rng: &mut impl Rng) -> ConvCase {
    let h: usize = rng.gen_range(3..10);
    let w: usize = rng.gen_range(2..9);
    ConvCase {
        h,
        w,
        cin: rng.gen_range(1..5),
        cout: rng.gen_range(1..7),
        kh: rng.gen_range(1..=h.min(4)),
        kw: rng.gen_range(1..=w.min(4)),
        stride: rng.gen_range(1..3),
        padding: if rng.gen_bool(0.5) {
            Padding::Same
        } else {
            Padding::Valid
        },
    }
}

/// Edge cases of the tap-outer loops: cin = 1, cout = 1, stride 2 with
/// Same padding, and Same-padded kernels wider (and taller) than the input,
/// where some taps reach no output pixel at all — the last one so much
/// wider that its outer taps land past the end of the map.
fn edge_cases() -> Vec<ConvCase> {
    let case = |h, w, cin, cout, kh, kw, stride, padding| ConvCase {
        h,
        w,
        cin,
        cout,
        kh,
        kw,
        stride,
        padding,
    };
    vec![
        case(6, 5, 1, 4, 3, 3, 1, Padding::Same),
        case(6, 5, 3, 1, 3, 2, 1, Padding::Valid),
        case(5, 4, 1, 1, 2, 2, 1, Padding::Valid),
        case(7, 6, 2, 3, 3, 3, 2, Padding::Same),
        case(8, 5, 1, 2, 4, 3, 2, Padding::Same),
        case(4, 2, 2, 3, 3, 5, 1, Padding::Same),
        case(3, 3, 1, 1, 5, 7, 2, Padding::Same),
        case(9, 1, 3, 2, 3, 3, 2, Padding::Same),
        case(3, 2, 2, 3, 3, 9, 1, Padding::Same),
    ]
}

#[test]
fn conv2d_matches_naive_reference_on_random_cases() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0);
    for i in 0..25 {
        let case = random_case(&mut rng);
        let label = format!(
            "case {i}: in [{},{},{}] k {}x{} f{} s{} {:?}",
            case.h, case.w, case.cin, case.kh, case.kw, case.cout, case.stride, case.padding
        );
        check_conv(&case, &mut rng, &label);
    }
}

#[test]
fn dwconv2d_matches_naive_reference_on_random_cases() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1);
    for i in 0..25 {
        let case = random_case(&mut rng);
        let label = format!(
            "case {i}: in [{},{},{}] k {}x{} s{} {:?}",
            case.h, case.w, case.cin, case.kh, case.kw, case.stride, case.padding
        );
        check_dwconv(&case, &mut rng, &label);
    }
}

#[test]
fn conv_kernels_match_naive_reference_on_edge_cases() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE6);
    for (i, case) in edge_cases().iter().enumerate() {
        let label = format!(
            "edge {i}: in [{},{},{}] k {}x{} f{} s{} {:?}",
            case.h, case.w, case.cin, case.kh, case.kw, case.cout, case.stride, case.padding
        );
        check_conv(case, &mut rng, &label);
        check_dwconv(case, &mut rng, &label);
    }
}

/// The input-channel counts that reach every block width the conv kernels
/// are compiled for (1, 4 and 6, one block and several), and the filter
/// counts they are compiled for.
const DISPATCH_CIN: [usize; 6] = [1, 5, 4, 8, 6, 12];
const DISPATCH_COUT: [usize; 5] = [4, 6, 8, 12, 16];

/// Pairs outside the compiled set, which run the run-time-width kernels.
const FALLBACK_PAIRS: [(usize, usize); 3] = [(3, 5), (8, 24), (1, 32)];

/// Conv backward with `grad_in` absent (a first layer) must leave the same
/// parameter gradients as the reference.
fn check_conv_without_grad_in(case: &ConvCase, rng: &mut impl Rng, label: &str) {
    let ConvCase {
        h,
        w,
        cin,
        cout,
        kh,
        kw,
        stride,
        padding,
    } = *case;
    let mut layer = Conv2d::standalone(cin, cout, kh, kw, stride, padding, rng);
    let input = random_input(rng, h, w, cin);
    let weights = layer.weights().to_vec();
    let mut out = Tensor::zeros([1]);
    layer.forward_into(&input, &mut out);
    let grad_out = random_grad(rng, out.shape());
    layer.backward_into(&input, &grad_out, None);
    let (_, want_gw, want_gb) = reference::conv2d_backward(
        &input, &grad_out, &weights, kh, kw, cin, cout, stride, padding,
    );
    assert_eq!(
        bits(layer.grad_weights()),
        bits(&want_gw),
        "{label}: grad_weights without grad_in"
    );
    assert_eq!(
        bits(layer.grad_bias()),
        bits(&want_gb),
        "{label}: grad_bias without grad_in"
    );
}

/// Depthwise backward with `grad_in` absent.
fn check_dwconv_without_grad_in(case: &ConvCase, rng: &mut impl Rng, label: &str) {
    let ConvCase {
        h,
        w,
        cin: c,
        kh,
        kw,
        stride,
        padding,
        ..
    } = *case;
    let mut layer = DwConv2d::standalone(c, kh, kw, stride, padding, rng);
    let input = random_input(rng, h, w, c);
    let weights = layer.weights().to_vec();
    let mut out = Tensor::zeros([1]);
    layer.forward_into(&input, &mut out);
    let grad_out = random_grad(rng, out.shape());
    layer.backward_into(&input, &grad_out, None);
    let (_, want_gw, want_gb) =
        reference::dwconv2d_backward(&input, &grad_out, &weights, kh, kw, c, stride, padding);
    assert_eq!(
        bits(layer.grad_weights()),
        bits(&want_gw),
        "{label}: grad_weights without grad_in"
    );
    assert_eq!(
        bits(layer.grad_bias()),
        bits(&want_gb),
        "{label}: grad_bias without grad_in"
    );
}

/// One case per stride and padding for a `[7, 6, cin]` map under a 3×3
/// kernel.
fn geometry_cases(cin: usize, cout: usize) -> Vec<ConvCase> {
    let mut cases = Vec::new();
    for stride in [1, 2] {
        for padding in [Padding::Same, Padding::Valid] {
            cases.push(ConvCase {
                h: 7,
                w: 6,
                cin,
                cout,
                kh: 3,
                kw: 3,
                stride,
                padding,
            });
        }
    }
    cases
}

#[test]
fn conv_matches_naive_reference_at_every_dispatched_width_pair() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
    let pairs = DISPATCH_CIN
        .iter()
        .flat_map(|&cin| DISPATCH_COUT.iter().map(move |&cout| (cin, cout)))
        .chain(FALLBACK_PAIRS);
    for (cin, cout) in pairs {
        for case in geometry_cases(cin, cout) {
            let label = format!("cin {cin} cout {cout} s{} {:?}", case.stride, case.padding);
            check_conv(&case, &mut rng, &label);
            check_conv_without_grad_in(&case, &mut rng, &label);
        }
    }
}

#[test]
fn dwconv_matches_naive_reference_at_every_channel_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD16);
    for c in [1, 4, 6, 8, 12, 16, 3, 24] {
        for case in geometry_cases(c, c) {
            let label = format!("c {c} s{} {:?}", case.stride, case.padding);
            check_dwconv(&case, &mut rng, &label);
            check_dwconv_without_grad_in(&case, &mut rng, &label);
        }
    }
}
