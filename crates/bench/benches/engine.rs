//! Throughput of the simulation substrate: timer-wheel churn and
//! physical-server ticks at various VM counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfcloud_host::{PhysicalServer, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud_sim::wheel::{Entry, TimerWheel};
use perfcloud_sim::{RngFactory, SimDuration, SimTime};
use perfcloud_workloads::{FioRandRead, Stream};
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Raw pop/reinsert churn at a fixed pending count: the hierarchical timer
/// wheel against a binary heap, both on the wheel's 24-byte
/// `(time, seq, id)` entry.
fn bench_wheel_vs_heap(c: &mut Criterion) {
    fn entry(t: u64, seq: u64) -> Entry {
        Entry { time: SimTime::from_micros(t), seq, id: 0 }
    }
    let mut xs = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        xs ^= xs << 13;
        xs ^= xs >> 7;
        xs ^= xs << 17;
        xs
    };
    let mut g = c.benchmark_group("calendar_churn");
    for pending in [10_000usize, 100_000] {
        let horizon = pending as u64 * 16;
        g.bench_with_input(BenchmarkId::new("wheel", pending), &pending, |b, &pending| {
            let mut w = TimerWheel::new();
            let mut seq = 0u64;
            for _ in 0..pending {
                w.insert(entry(next() % horizon, seq));
                seq += 1;
            }
            b.iter(|| {
                let e = w.pop().expect("pending count is constant");
                w.insert(entry(e.time.as_micros() + 1 + next() % horizon, seq));
                seq += 1;
                black_box(e.seq)
            })
        });
        g.bench_with_input(BenchmarkId::new("heap", pending), &pending, |b, &pending| {
            let mut h = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..pending {
                h.push(entry(next() % horizon, seq));
                seq += 1;
            }
            b.iter(|| {
                let e = h.pop().expect("pending count is constant");
                h.push(entry(e.time.as_micros() + 1 + next() % horizon, seq));
                seq += 1;
                black_box(e.seq)
            })
        });
    }
    g.finish();
}

fn server_with_vms(n: u32) -> PhysicalServer {
    let mut s = PhysicalServer::new(
        ServerId(0),
        ServerConfig::chameleon(),
        RngFactory::new(5),
        SimDuration::from_millis(100),
    );
    for i in 0..n {
        s.add_vm(VmId(i), VmConfig::high_priority());
        if i % 2 == 0 {
            s.spawn(VmId(i), Box::new(FioRandRead::with_rate(500.0, 4096.0, None)));
        } else {
            s.spawn(VmId(i), Box::new(Stream::with_threads(2, 1e9, None)));
        }
    }
    s
}

fn bench_server_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("server_tick");
    for n in [4u32, 12, 48] {
        g.bench_with_input(BenchmarkId::new("vms", n), &n, |b, &n| {
            let mut s = server_with_vms(n);
            b.iter(|| black_box(s.tick(SimDuration::from_millis(100))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wheel_vs_heap, bench_server_tick);
criterion_main!(benches);
