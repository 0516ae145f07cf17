//! Criterion micro-benchmarks for the DP machinery: Laplace sampling, joint two-party
//! noise generation and the above-noisy-threshold mechanism.

use criterion::{criterion_group, criterion_main, Criterion};
use incshrink_dp::joint::joint_laplace_noise;
use incshrink_dp::{LaplaceMechanism, NumericAboveThreshold};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::{PartyContext, PartyMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_laplace_sampling(c: &mut Criterion) {
    c.bench_function("laplace_sample", |b| {
        let mech = LaplaceMechanism::new(10.0, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| mech.sample_noise(&mut rng));
    });
}

fn bench_joint_noise(c: &mut Criterion) {
    c.bench_function("joint_laplace_noise", |b| {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 2, CostModel::default());
        b.iter(|| joint_laplace_noise(&mut ctx, 10.0, 1.5, 42.0));
    });
}

fn bench_svt_steps(c: &mut Criterion) {
    c.bench_function("svt_1000_steps", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut svt = NumericAboveThreshold::new(30.0, 10.0, 1.5, &mut rng);
            let mut fired = 0u32;
            for _ in 0..1000 {
                if matches!(
                    svt.step(3, &mut rng),
                    incshrink_dp::svt::SvtOutcome::Released { .. }
                ) {
                    fired += 1;
                }
            }
            fired
        });
    });
}

criterion_group!(
    benches,
    bench_laplace_sampling,
    bench_joint_noise,
    bench_svt_steps
);
criterion_main!(benches);
