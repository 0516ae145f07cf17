//! Host-speed gauge. The benchmark runs on shared hosts whose effective CPU
//! speed drifts by tens of percent for seconds to minutes (measured: a fixed
//! loop's wall time had an inter-quartile spread of 0.26 of its median over two
//! minutes). Every host-clock metric is therefore reported *at nominal speed*:
//! a fixed reference kernel — plain Rust in this file, sharing no code with the
//! system under test — is timed alongside the measured calls, and each timing is
//! divided by `index = measured kernel time ÷ nominal kernel time`. On the same
//! data this cut the spread of a repetition's step median from 0.24 to 0.03.
//! The index itself is reported (`host.speed_index`), so raw = reported × index.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Kernel time that defines index 1.0: reported times are those of a host on
/// which the kernel takes half a millisecond (the 2.1 GHz box the benchmark
/// was fitted on took 0.45–0.8 ms). Only fixes the scale of the reported
/// numbers; comparisons never depend on it.
const NOMINAL_SECS: f64 = 500e-6;
const WORDS: usize = 4096;
const PASSES: usize = 8;

/// Times the reference kernel on demand and remembers every sample.
pub struct SpeedGauge {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl SpeedGauge {
    pub fn new() -> Self {
        Self {
            buf: vec![0; WORDS],
            samples: Vec::new(),
        }
    }

    /// Run the kernel once (≈ 0.5 ms) and record how long it took.
    pub fn sample(&mut self) {
        let started = Instant::now();
        for _ in 0..PASSES {
            black_box(kernel(&mut self.buf));
        }
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// Seconds spent inside the kernel so far — callers that sample inside a
    /// timed region subtract this from the region's wall time.
    pub fn spent_secs(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean kernel time over nominal: 1.0 at nominal speed, 1.3 when the host
    /// runs 30 % slow. `1.0` before the first sample.
    pub fn index(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.spent_secs() / self.samples.len() as f64 / NOMINAL_SECS
        }
    }
}

/// Sample the gauge from a thread of its own every `period` while `body` runs
/// — for code whose loop the benchmark cannot reach into (the cluster runtime
/// drives its steps inside `run()`). The sampler sleeps between samples, so it
/// takes about `0.5 ms ÷ period` of one core.
pub fn sampled_during<T>(period: Duration, body: impl FnOnce() -> T) -> (T, SpeedGauge) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut gauge = SpeedGauge::new();
            // `done` publishes no data: the gauge comes back through `join`.
            while !done.load(Ordering::Relaxed) {
                gauge.sample();
                std::thread::sleep(period);
            }
            gauge
        });
        let out = body();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("gauge sampler thread"))
    })
}

/// Fill the buffer from a xorshift stream, then run log₂(n) branch-free
/// compare-exchange passes at halving gaps: integer ALU work streaming over
/// 32 KiB, the same mix as the lane kernels and sorting networks it stands in for.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    let n = buf.len();
    let mut gap = n / 2;
    while gap > 0 {
        for i in 0..n - gap {
            let (a, b) = (buf[i], buf[i + gap]);
            let swap = 0u64.wrapping_sub(u64::from(a > b)) & (a ^ b);
            buf[i] = a ^ swap;
            buf[i + gap] = b ^ swap;
        }
        gap /= 2;
    }
    buf[0] ^ buf[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_mean_sample_over_nominal() {
        let mut gauge = SpeedGauge::new();
        assert_eq!(gauge.index(), 1.0);
        gauge.samples = vec![NOMINAL_SECS, 3.0 * NOMINAL_SECS];
        assert!((gauge.index() - 2.0).abs() < 1e-12);
        assert!((gauge.spent_secs() - 4.0 * NOMINAL_SECS).abs() < 1e-15);
        gauge.sample();
        assert_eq!(gauge.samples.len(), 3);
        assert!(gauge.index() > 0.0);
    }

    #[test]
    fn kernel_is_deterministic_and_orders_each_gap_pair() {
        let (mut a, mut b) = (vec![0; 64], vec![0; 64]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
        // The last pass (gap 1) leaves every adjacent pair it touched ordered
        // at the time it touched it; at least the final pair is in order.
        assert!(a[62] <= a[63]);
    }
}
