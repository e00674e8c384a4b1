//! Simulated time and bandwidth arithmetic.
//!
//! All engines in this workspace keep time as plain `u64` nanoseconds.
//! [`Nanos`] is a transparent alias rather than a newtype: the simulators do
//! heavy arithmetic on timestamps (slot indices, epoch offsets, modular
//! rotation schedules) and a newtype would force a wrapper method on every
//! expression without catching any real bug class — both operands are always
//! nanoseconds here. Bandwidth, where unit confusion *is* plausible
//! (bits vs bytes, Gbps vs bytes/ns), gets a real type: [`Bandwidth`].

/// Simulated time in nanoseconds since the start of the run.
pub type Nanos = u64;

/// Link or aggregate bandwidth. Stored in bits per second to keep the
/// paper's numbers (100 Gbps per port, 400 Gbps per ToR) exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

/// 1 Gbps, the unit the paper quotes all rates in.
pub const GBPS: Bandwidth = Bandwidth::from_gbps(1);

impl Bandwidth {
    /// Bandwidth from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth {
            bits_per_sec: gbps * 1_000_000_000,
        }
    }

    /// Raw bits per second.
    pub const fn bps(self) -> u64 {
        self.bits_per_sec
    }

    /// Gigabits per second as a float (for reports).
    pub fn gbps(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// How many whole bytes cross a link of this bandwidth in `dur` ns.
    ///
    /// 100 Gbps = 12.5 bytes/ns, so a 50 ns predefined-phase data window
    /// carries 625 B and a 90 ns scheduled slot carries 1125 B — the paper's
    /// packet sizes fall out of this arithmetic exactly.
    pub const fn bytes_in(self, dur: Nanos) -> u64 {
        // bits = bps * ns / 1e9; bytes = bits / 8.
        self.bits_per_sec * dur / 8_000_000_000
    }

    /// Time needed to serialize `bytes` onto a link of this bandwidth,
    /// rounded up to the next nanosecond.
    pub const fn transmit_time(self, bytes: u64) -> Nanos {
        let bits = bytes * 8;
        // ceil(bits * 1e9 / bps)
        (bits * 1_000_000_000).div_ceil(self.bits_per_sec)
    }

    /// Scale by an integer factor (e.g. per-port rate × port count).
    pub const fn scale(self, factor: u64) -> Self {
        Bandwidth {
            bits_per_sec: self.bits_per_sec * factor,
        }
    }
}

impl core::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1} Gbps", self.gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_sizes_fall_out_of_bandwidth_math() {
        let port = Bandwidth::from_gbps(100);
        // 50 ns data window in the predefined phase: 30 B messages + 595 B payload.
        assert_eq!(port.bytes_in(50), 625);
        // 90 ns scheduled slot: 10 B header + 1115 B payload.
        assert_eq!(port.bytes_in(90), 1125);
    }

    #[test]
    fn transmit_time_rounds_up() {
        let port = Bandwidth::from_gbps(100);
        assert_eq!(port.transmit_time(625), 50);
        assert_eq!(port.transmit_time(626), 51); // 50.08 ns rounds up
        assert_eq!(port.transmit_time(0), 0);
    }

    #[test]
    fn bytes_in_and_transmit_time_are_inverse_on_whole_bytes() {
        let bw = Bandwidth::from_gbps(100);
        for dur in [1u64, 8, 50, 90, 1000] {
            let b = bw.bytes_in(dur);
            assert!(bw.transmit_time(b) <= dur);
        }
    }

    #[test]
    fn display_and_units() {
        assert_eq!(Bandwidth::from_gbps(400).to_string(), "400.0 Gbps");
        assert_eq!(GBPS.bps(), 1_000_000_000);
        assert_eq!(Bandwidth::from_gbps(100).scale(8).gbps(), 800.0);
    }
}
