//! Virtual-clock benchmarks: the shared [`simclock::ClockHandle`] sits on
//! the fault-transport hot path (every exchange reads it; blocking
//! clients advance it), so its read/advance costs must stay at
//! plain-atomic scale. The scheduler bench covers the discrete-event
//! queue end to end: schedule 1 000 keyed typed events in reverse time
//! order, then drain them — heap churn and tie-break ordering included.

use criterion::{criterion_group, criterion_main, Criterion};
use simclock::{ClockHandle, Scheduler};
use std::hint::black_box;

fn bench_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("simclock");
    // Single-digit-nanosecond atomics; same reasoning as the cached
    // rootd serves — let the calibration loop run long enough that the
    // measurement is not timer noise.
    group.sample_size(200_000);
    let clock = ClockHandle::new();
    group.bench_function("clock_now", |b| b.iter(|| black_box(clock.now_ms())));
    group.bench_function("clock_advance", |b| {
        b.iter(|| black_box(clock.advance(black_box(1))))
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("simclock");
    group.sample_size(200);
    group.bench_function("schedule_fire_1k", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            // Reverse time order with scrambled keys: the worst case for
            // the heap and the case where tie-breaking actually runs.
            for i in 0..1_000u64 {
                s.schedule_keyed(1_000 - i, i ^ 0x2a, i);
            }
            let (mut fired, mut last) = (0, 0);
            while let Some((t, ev)) = s.pop() {
                fired += 1;
                last = black_box(t ^ ev);
            }
            assert_eq!(fired, 1_000);
            last
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clock, bench_scheduler);
criterion_main!(benches);
