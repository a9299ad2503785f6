//! Functional training against the synthetic distributions: a few dozen
//! adversarial steps must move the generator's signature toward the data
//! (full convergence is exercised by `examples/train_synthetic_gan`).

use lergan_gan::data::{generator_signature, Distribution, Sampler};
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Gan, UpdateRule};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_gan(seed: u64, adam: bool) -> Gan {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 12).unwrap();
    let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 12).unwrap();
    let g = build_trainable_with(&gen_spec, true, false, &mut rng);
    let d = build_trainable_with(&disc_spec, false, false, &mut rng);
    let gan = Gan::new(g, d, 8, 0.03, seed + 1);
    if adam {
        gan.with_optimizer(UpdateRule::dcgan_adam(0.01))
    } else {
        gan
    }
}

fn improvement(distribution: Distribution, seed: u64, adam: bool) -> (f32, f32) {
    let mut gan = tiny_gan(seed, adam);
    let mut sampler = Sampler::new(distribution, 12, 0.05, seed);
    let before = generator_signature(&mut gan, distribution, 6);
    for _ in 0..60 {
        let reals = sampler.batch(4);
        gan.train_step(&reals);
    }
    let after = generator_signature(&mut gan, distribution, 6);
    (before, after)
}

#[test]
fn sgd_moves_generator_toward_stripes() {
    let (before, after) = improvement(Distribution::Stripes, 7, false);
    assert!(
        after > before,
        "stripe signature should rise: {before:.3} -> {after:.3}"
    );
}

#[test]
fn adam_moves_generator_toward_blob() {
    let (before, after) = improvement(Distribution::Blob, 11, true);
    assert!(
        after > before,
        "blob signature should rise: {before:.3} -> {after:.3}"
    );
}

#[test]
fn discriminator_rejects_noise_after_training() {
    let mut gan = tiny_gan(3, false);
    let mut sampler = Sampler::new(Distribution::Checkerboard, 12, 0.05, 9);
    for _ in 0..60 {
        let reals = sampler.batch(4);
        gan.train_step(&reals);
    }
    // The discriminator must score real data above fresh generator output
    // (it has had 60 steps of advantage).
    let real = sampler.sample();
    let fake = gan.generate();
    let pair = pack_batch(&[real, fake]).unwrap();
    let logits = gan.discriminator.forward_batch(&pair, 2).unwrap();
    let (real_logit, fake_logit) = (logits.data()[0], logits.data()[1]);
    assert!(
        real_logit > fake_logit,
        "D should prefer real ({real_logit:.3}) over fake ({fake_logit:.3})"
    );
}
