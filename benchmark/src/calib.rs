//! Calibrated time. The sandbox's effective CPU speed drifts by a third over
//! minutes (neighbours on the host), which no statistic over wall-clock
//! samples removes. So the offline workloads time their CPU-bound work
//! against a fixed reference kernel (one of two) that lives here, outside
//! the program: the kernel runs between segments of the work - at every phase boundary
//! of a simulation, through the progress sink - and each segment's wall time
//! is scaled by how fast the kernel ran on either side of it. A calibrated
//! second is a second on a host that runs the kernel in `NOMINAL_MS`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::scenario::ProgressSink;

/// What either reference kernel takes on a quiet run of the sandbox this
/// benchmark was written on. Only fixes the scale of calibrated time.
pub const NOMINAL_MS: f64 = 1.0;

/// Which reference kernel a piece of work is timed against: a xorshift chain
/// doing read-modify-writes at random places in a table, of one of two sizes.
/// Both feel a slower clock, as any code does; they differ in what else.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// 1 MiB, which stays in the core's own cache: for short, compute-bound
    /// work (compiling and hashing a scenario), whose wall time the shared
    /// cache's state barely moves.
    Core,
    /// 16 MiB, which like the simulators' pair tables lives in the
    /// last-level cache that the host's other tenants share. Measured here
    /// over one noisy stretch, the 1 MiB kernel slowed by 6 % while the
    /// simulators slowed by 28 %, a 64 MiB one always misses and felt as
    /// little, and this one followed them best.
    Cache,
}

impl Kernel {
    /// `(table length in words, iterations)`: about `NOMINAL_MS` either way.
    fn shape(self) -> (usize, usize) {
        match self {
            Kernel::Core => (1 << 17, 470_000),
            Kernel::Cache => (1 << 21, 200_000),
        }
    }

    fn run(table: &mut [u64], iterations: usize) -> u64 {
        let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
        let mask = table.len() - 1;
        for _ in 0..iterations {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize & mask];
            *slot = slot.wrapping_add(x);
            sum = sum.wrapping_add(*slot);
        }
        sum
    }

    /// Milliseconds the kernel takes now: the fastest of three runs. The
    /// tables are the process's, so the harness adds their 17 MiB to the
    /// resident set once, whatever the number of meters.
    pub fn probe_ms(self) -> f64 {
        static TABLES: Mutex<[Vec<u64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);
        let (len, iterations) = self.shape();
        let mut tables = TABLES.lock().expect("no probe panics");
        let table = &mut tables[self as usize];
        table.resize(len, 0);
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(Kernel::run(table, iterations));
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Seconds of work, as the wall clock read them and calibrated.
#[derive(Clone, Copy, Default)]
pub struct Timed {
    pub raw_s: f64,
    pub cal_s: f64,
}

impl std::ops::Sub for Timed {
    type Output = Timed;
    fn sub(self, earlier: Timed) -> Timed {
        Timed {
            raw_s: self.raw_s - earlier.raw_s,
            cal_s: self.cal_s - earlier.cal_s,
        }
    }
}

struct State {
    kernel: Kernel,
    /// The probe that opened the running segment.
    opened_ms: f64,
    segment: Instant,
    total: Timed,
    probes: Vec<f64>,
}

/// Times work in segments. `mark` ends a segment: it probes the kernel, adds
/// the segment scaled by the mean of the probes on its two sides, and starts
/// the next one. The probes themselves are in no segment.
#[derive(Clone)]
pub struct Meter(Arc<Mutex<State>>);

impl Meter {
    pub fn start(kernel: Kernel) -> Meter {
        let opened_ms = kernel.probe_ms();
        Meter(Arc::new(Mutex::new(State {
            kernel,
            opened_ms,
            probes: vec![opened_ms],
            total: Timed::default(),
            segment: Instant::now(),
        })))
    }

    /// End the running segment and start the next. Returns the work timed
    /// so far.
    pub fn mark(&self) -> Timed {
        let mut s = self
            .0
            .lock()
            .expect("the meter is marked from one thread at a time");
        let raw_s = s.segment.elapsed().as_secs_f64();
        let closed_ms = s.kernel.probe_ms();
        s.total.raw_s += raw_s;
        s.total.cal_s += raw_s * NOMINAL_MS / ((s.opened_ms + closed_ms) / 2.0);
        s.opened_ms = closed_ms;
        s.probes.push(closed_ms);
        s.segment = Instant::now();
        s.total
    }

    /// A progress sink that marks at every phase boundary of a simulation,
    /// on the simulation's own thread.
    pub fn sink(&self) -> ProgressSink {
        let meter = self.clone();
        Arc::new(move |_| {
            meter.mark();
        })
    }

    /// Median of the probes so far, in ms: how fast the host was.
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median(&self.0.lock().expect("meter").probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_meter_times_segments_and_leaves_its_probes_out() {
        let meter = Meter::start(Kernel::Core);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let first = meter.mark();
        let second = meter.mark() - first;
        assert!(first.raw_s >= 0.020, "{}", first.raw_s);
        assert!(first.cal_s > 0.0 && first.cal_s.is_finite());
        // Nothing happened between the two marks but a probe, which takes
        // milliseconds and belongs to neither segment.
        assert!(second.raw_s < 0.001, "{}", second.raw_s);
        assert!(meter.kernel_ms() > 0.0);
    }
}
