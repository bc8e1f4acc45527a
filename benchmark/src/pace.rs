//! Times of fixed work, scaled to one reference speed.
//!
//! The machine the benchmark was calibrated on is a shared 2-vCPU virtual
//! machine. Its neighbours slow it down: in bursts of ten milliseconds to a
//! few seconds, and in stretches that last a minute or more and slow every
//! kind of work, by up to a quarter in calm hours and by half in busy ones.
//! A fixed kernel runs between the units of work (a training step, a batch
//! of uncached queries, a capacity replay), and each repeat of a unit is
//! scaled by [`REFERENCE_S`] over the kernel's time next to it: a stretch
//! that slows both cancels out. A unit counts with the median of its scaled
//! repeats, so a burst that hit the unit but not the kernel next to it (or
//! the other way round) moves nothing while it hits fewer than half of them.
//!
//! The kernel mixes the kinds of work the workloads do: dense `f32`
//! arithmetic, random reads and writes of a table larger than L1, and
//! sorting. It is the benchmark's own code and allocates nothing once
//! built, so neither a change to the libraries nor the allocator settings of
//! the run can move it. It runs on the thread that times the units, so that
//! it measures the vCPU they run on, and never while a server is answering
//! queries.
//!
//! Open-loop latencies are not scaled: they include the server's fixed
//! batching window and queueing, which do not follow the machine's speed in
//! proportion.

use crate::stats::{median, timed};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's time on the calibrating machine when nothing slowed it.
/// Scaled times read as times on that machine at that speed.
pub const REFERENCE_S: f64 = 0.62e-3;
/// A tick is skipped when the previous one is more recent than this, so
/// the kernel takes about 1% of a run.
const TICK_EVERY_S: f64 = 0.05;
/// Side of the kernel's square matrices.
const N: usize = 48;

/// The reference kernel with its buffers, allocated once.
#[derive(Debug)]
struct Kernel {
    a: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u32>,
    keys: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        Self {
            a: vec![0.0; N * N],
            c: vec![0.0; N * N],
            table: vec![0; 1 << 16],
            keys: vec![0; 20_000],
        }
    }

    /// One run. `seed` comes through `black_box`, so none of the work can
    /// be folded away at compile time.
    fn run(&mut self, seed: u64) -> u64 {
        // Dense f32 arithmetic: a 48 x 48 matrix product, four times.
        let (a, c) = (&mut self.a, &mut self.c);
        for (i, x) in a.iter_mut().enumerate() {
            *x = ((i as u64 ^ seed) % 7) as f32 * 0.1;
        }
        c.fill(0.0);
        for _ in 0..4 {
            for i in 0..N {
                for k in 0..N {
                    let x = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += x * a[k * N + j];
                    }
                }
            }
        }
        // Random reads and writes of a 256 KiB table at xorshift addresses.
        let table = &mut self.table;
        table.fill(0);
        let mut s = seed | 1;
        let mut acc = 0u64;
        for _ in 0..100_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s as usize) & 0xffff;
            table[i] = table[i].wrapping_add(1);
            acc = acc.wrapping_add(u64::from(table[(i * 31) & 0xffff]));
            if acc & 1 == 1 {
                acc ^= s;
            }
        }
        // Sorting, in place.
        for (i, k) in (0u64..).zip(self.keys.iter_mut()) {
            *k = (i ^ seed).wrapping_mul(2_654_435_761) % 100_003;
        }
        self.keys.sort_unstable();
        acc ^ u64::from(c[5].to_bits()) ^ self.keys[100]
    }
}

/// The kernel's times over a run, and the scaling they give.
#[derive(Debug)]
pub struct Pace {
    epoch: Instant,
    kernel: Mutex<Kernel>,
    /// `(seconds since epoch, kernel seconds)`, in time order.
    ticks: Mutex<Vec<(f64, f64)>>,
}

impl Default for Pace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            kernel: Mutex::new(Kernel::new()),
            ticks: Mutex::new(Vec::new()),
        }
    }
}

impl Pace {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn ticks(&self) -> std::sync::MutexGuard<'_, Vec<(f64, f64)>> {
        self.ticks.lock().expect("a tick holder panicked")
    }

    /// Run the kernel now, unless it ran within the last `TICK_EVERY_S`;
    /// returns the kernel time of the latest tick.
    fn tick(&self) -> f64 {
        if let Some(&(at, secs)) = self.ticks().last() {
            if self.now_s() - at < TICK_EVERY_S {
                return secs;
            }
        }
        let mut kernel = self.kernel.lock().expect("a kernel holder panicked");
        let seed = black_box(self.epoch.elapsed().as_nanos() as u64);
        let (_, secs) = timed(|| black_box(kernel.run(seed)));
        drop(kernel);
        let at = self.now_s();
        self.ticks().push((at, secs));
        secs
    }

    /// Run `f` between two ticks; returns its result and its seconds at
    /// the reference speed: times [`REFERENCE_S`] over the mean kernel
    /// time of the ticks before and after it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.tick();
        let (r, secs) = timed(f);
        let after = self.tick();
        (r, secs * REFERENCE_S * 2.0 / (before + after))
    }

    /// The kernel's median time in the run so far.
    pub fn kernel_median_s(&self) -> f64 {
        let ticks = self.ticks();
        assert!(!ticks.is_empty(), "no tick yet");
        median(&ticks.iter().map(|&(_, k)| k).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_repeat_is_scaled_by_the_ticks_next_to_it() {
        let p = Pace::default();
        // Half the reference speed just before the unit: it reads halved.
        p.ticks().push((p.now_s(), 2.0 * REFERENCE_S));
        let (v, secs) = p.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(v, 7);
        assert!((0.01..0.1).contains(&secs), "{secs}");
        // The tick after the unit was skipped: both sides used the same one.
        assert_eq!(p.ticks().len(), 1);
        std::thread::sleep(std::time::Duration::from_millis(60));
        let (_, secs) = p.time(|| ());
        assert_eq!(p.ticks().len(), 2);
        assert!(secs >= 0.0);
        assert!(p.kernel_median_s() > 0.0);
    }
}
