//! Microbenchmarks for the erasure codecs at the paper's stripe-unit
//! sizes, through the same `codec_for(k, m)` path the engine's
//! verification uses: XOR parity (`m = 1`) and Reed–Solomon (`m = 2`).

use cms_parity::{codec_for, Block};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("parity_codec");
    for m in [1usize, 2] {
        // k = p − 1 data shards for the paper's parity groups p = 4, 8, 16.
        for (k, kb) in [(3usize, 64u64), (3, 256), (7, 256), (15, 256)] {
            let bytes = (kb * 1024) as usize;
            let mut codec = codec_for(k, m).unwrap();
            let mut shards: Vec<Block> = (0..k + m)
                .map(|i| Block::synthetic(9, i as u64, bytes))
                .collect();
            group.throughput(Throughput::Bytes((bytes * k) as u64));
            group.bench_function(format!("encode_k{k}_m{m}_{kb}KiB"), |b| {
                b.iter(|| codec.encode_within(black_box(&mut shards)).unwrap())
            });
            let mut out = Block::default();
            group.bench_function(format!("reconstruct_k{k}_m{m}_{kb}KiB"), |b| {
                b.iter(|| codec.reconstruct_within(black_box(&shards), 0, &mut out).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parity);
criterion_main!(benches);
