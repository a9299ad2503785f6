//! Properties of the [`RecoveryPolicy`] retry ladder.
//!
//! The serving layer re-admits dead jobs with the same capped exponential
//! backoff the self-healing runtime uses for relocate-and-replay, so the
//! ladder's arithmetic is load-bearing twice over: delays must be monotone
//! non-decreasing in the attempt number (later retries never fire sooner),
//! capped (a long ladder degrades to constant-interval retries instead of
//! waiting geometrically forever), and bit-deterministic — the same policy
//! must produce the same delay on every host and at every worker count,
//! or the serve sweep's byte-determinism guarantee dies here.
//!
//! The runtime's input contract is pinned here too: a malformed batch is
//! a typed [`lergan_core::RecoveryError::Train`], never a panic.

use lergan_core::{RecoveryError, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan_gan::benchmarks;
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, Gan, TrainError, UpdateRule};
use lergan_reram::WearModel;
use lergan_tensor::parallel::with_threads;
use lergan_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policy(base: f64, cap: f64) -> RecoveryPolicy {
    RecoveryPolicy {
        backoff_base_ns: base,
        backoff_cap_ns: cap,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn default_ladder_matches_the_historical_uncapped_delays() {
    // PR 4 charged base * 2^(a-1) with max_retries = 3; the cap must not
    // change those first rungs, or BENCH_recovery.json would shift.
    let p = RecoveryPolicy::default();
    assert_eq!(p.backoff_ns(1).to_bits(), 200.0f64.to_bits());
    assert_eq!(p.backoff_ns(2).to_bits(), 400.0f64.to_bits());
    assert_eq!(p.backoff_ns(3).to_bits(), 800.0f64.to_bits());
    // The fourth rung is the first capped one under the defaults.
    assert_eq!(p.backoff_ns(4).to_bits(), 1_600.0f64.to_bits());
    assert_eq!(p.backoff_ns(5).to_bits(), 1_600.0f64.to_bits());
}

/// The 16 px DCGAN-class trainer the recovery sweep wraps.
fn small_trainer() -> Gan {
    let g_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let d_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let g = build_trainable_with(&g_spec, true, false, &mut rng);
    let d = build_trainable_with(&d_spec, false, false, &mut rng);
    Gan::new(g, d, 8, 0.0, 77).with_optimizer(UpdateRule::dcgan_adam(0.01))
}

#[test]
fn malformed_batches_are_typed_errors_not_panics() {
    let mut rt = SelfHealingRuntime::new(
        &benchmarks::dcgan(),
        small_trainer(),
        SystemFaults::none(),
        RecoveryPolicy::default(),
        WearModel::disabled(),
    )
    .expect("runtime assembles");
    let good = || vec![Tensor::filled(&[1, 16, 16], 0.5); 2];
    rt.step(&good()).expect("a well-formed batch trains");
    let before = rt.report().steps;

    // 8 px images where the stacks expect 16 px.
    let small = vec![Tensor::filled(&[1, 8, 8], 0.5); 2];
    assert!(matches!(
        rt.step(&small),
        Err(RecoveryError::Train(TrainError::ShapeMismatch { .. }))
    ));
    // Mixed sample shapes and an empty batch.
    let mixed = vec![
        Tensor::filled(&[1, 16, 16], 0.5),
        Tensor::filled(&[1, 8, 8], 0.5),
    ];
    assert!(matches!(
        rt.step(&mixed),
        Err(RecoveryError::Train(TrainError::ShapeMismatch {
            layer: "pack_batch",
            ..
        }))
    ));
    assert!(matches!(
        rt.step(&[]),
        Err(RecoveryError::Train(TrainError::EmptyBatch))
    ));
    let err = rt.step(&[]).unwrap_err().to_string();
    assert!(err.contains("at least one sample"), "{err}");

    // Rejected batches count no step, and the runtime keeps training.
    assert_eq!(rt.report().steps, before);
    rt.step(&good())
        .expect("the runtime survives rejected batches");
}

#[test]
fn huge_attempt_numbers_saturate_instead_of_overflowing() {
    let p = policy(1.0, f64::MAX);
    // 2^62 is the largest exact shift; beyond it the ladder is flat.
    assert_eq!(p.backoff_ns(63), p.backoff_ns(64));
    assert_eq!(p.backoff_ns(64), p.backoff_ns(u32::MAX));
    assert!(p.backoff_ns(u32::MAX).is_finite());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delays_are_monotone_non_decreasing(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
        attempt in 1u32..120,
    ) {
        let p = policy(base, cap);
        prop_assert!(
            p.backoff_ns(attempt) <= p.backoff_ns(attempt + 1),
            "attempt {} waited {} > attempt {} waited {}",
            attempt, p.backoff_ns(attempt), attempt + 1, p.backoff_ns(attempt + 1)
        );
    }

    #[test]
    fn delays_never_exceed_the_cap(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
        attempt in 1u32..2_000,
    ) {
        let p = policy(base, cap);
        let d = p.backoff_ns(attempt);
        prop_assert!(d <= cap, "attempt {attempt}: {d} > cap {cap}");
        prop_assert!(d > 0.0 && d.is_finite());
    }

    #[test]
    fn ladder_is_bit_deterministic_across_1_2_8_threads(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
    ) {
        let p = policy(base, cap);
        let ladder = |threads: usize| -> Vec<u64> {
            with_threads(threads, || {
                (1..40).map(|a| p.backoff_ns(a).to_bits()).collect()
            })
        };
        let one = ladder(1);
        prop_assert_eq!(&one, &ladder(2));
        prop_assert_eq!(&one, &ladder(8));
    }
}
