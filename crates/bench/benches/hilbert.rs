//! Kernel bench: space-filling-curve conversion throughput.
//!
//! Particle indexing runs once per particle per redistribution, so the
//! raw curve conversion rate bounds how cheap redistribution can be.

use criterion::{criterion_group, criterion_main, Criterion};
use pic_index::hilbert2d::{d2xy, xy2d};
use pic_index::IndexScheme;
use std::hint::black_box;

fn bench_raw_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("raw_curve");
    g.bench_function("hilbert2d_xy2d_order10", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= xy2d(10, black_box(i), black_box(1023 - i));
            }
            acc
        })
    });
    g.bench_function("hilbert2d_d2xy_order10", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for d in 0..1024u64 {
                let (x, y) = d2xy(10, black_box(d * 97));
                acc ^= x ^ y;
            }
            acc
        })
    });
    g.finish();
}

fn bench_indexer_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("indexer_lookup_128x64");
    for scheme in IndexScheme::ALL {
        let ix = scheme.build(128, 64);
        g.bench_function(scheme.label(), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..4096usize {
                    acc ^= ix.index(black_box(i % 128), black_box((i / 128) % 64));
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_indexer_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("indexer_build");
    g.sample_size(20);
    for (nx, ny) in [(128usize, 64usize), (512, 256)] {
        g.bench_function(format!("hilbert_{nx}x{ny}"), |b| {
            b.iter(|| IndexScheme::Hilbert.build(black_box(nx), black_box(ny)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_raw_curve,
    bench_indexer_lookup,
    bench_indexer_build
);
criterion_main!(benches);
