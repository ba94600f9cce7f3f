//! Micro-benchmarks of the kernels: the Lemma 2.6 digit DP entry points
//! and the candidate argmin, on the same workloads the committed
//! `BENCH_bench.json` records. The `edge_shares` row is the warm-cache
//! `edge_shares_cached` path — the steady state of the Lemma 2.6 drivers.
//!
//! The digit-DP fixture matches `bench_derand`, so
//! `kernels/digit_dp/joint_coin_probs` reads against the `joint_coin_probs`
//! row there.

use criterion::{criterion_group, criterion_main, Criterion};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::SliceFamily;
use dcl_kernels::digit_dp::{self, EdgeDpCache};

fn kernels(c: &mut Criterion) {
    let fam = SliceFamily::new(10, 14);
    let mut seed = PartialSeed::new(fam.seed_len());
    for i in (0..fam.seed_len()).step_by(2) {
        seed.fix(i, i % 4 == 0);
    }
    let (x, y) = (0b1011001101u64, 0b0111010010u64);
    let fx = fam.forms_for(&seed, x);
    let fy = fam.forms_for(&seed, y);
    let over_u = [
        fam.form_with_fix(fx[3], x, 35, false),
        fam.form_with_fix(fx[3], x, 35, true),
    ];
    let over_v = [
        fam.form_with_fix(fy[3], y, 35, false),
        fam.form_with_fix(fy[3], y, 35, true),
    ];
    let scores: Vec<f64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
        .collect();

    c.bench_function("kernels/digit_dp/joint_coin_probs", |b| {
        b.iter(|| digit_dp::joint_coin_probs_override(&fx, None, 9000, &fy, None, 4000))
    });
    let mut cache = EdgeDpCache::new();
    c.bench_function("kernels/digit_dp/edge_shares", |b| {
        b.iter(|| {
            digit_dp::edge_shares_cached(
                &mut cache, &fx, over_u, 9000, 0.2, 0.25, &fy, over_v, 4000, 0.125, 0.5, 3,
            )
        })
    });
    c.bench_function("kernels/argmin/4096", |b| {
        b.iter(|| dcl_sim::argmin_f64(None, scores.len(), |i| scores[i]))
    });
}

criterion_group!(benches, kernels);
criterion_main!(benches);
