//! The per-message link cost model.
//!
//! A point-to-point message of `s` bytes over `h` hops costs
//!
//! ```text
//! t = t_sw + h · t_hop + s / (B_link / sharing)      (eager)
//! t = above + t_rdv                                  (rendezvous, s ≥ threshold)
//! ```
//!
//! `t_sw` is the software/injection overhead per message, `t_hop` the
//! per-router latency, `B_link` the peak link bandwidth, and `sharing` the
//! route's oversubscription factor from the topology. Messages at or above
//! the rendezvous threshold pay an extra handshake round-trip, which is why
//! measured bandwidth curves dip at the eager/rendezvous boundary.

use simkit::units::{Bandwidth, Bytes, Time};

/// Link and protocol parameters of one interconnect.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// Per-message software/injection overhead.
    pub sw_overhead: Time,
    /// Per-hop router latency.
    pub hop_latency: Time,
    /// Peak per-direction link bandwidth.
    pub bandwidth: Bandwidth,
    /// Eager/rendezvous protocol switch point.
    pub rendezvous_threshold: Bytes,
    /// Extra handshake cost for rendezvous messages (one round trip).
    pub rendezvous_overhead: Time,
}

impl LinkModel {
    /// TofuD as measured on CTE-Arm with Fujitsu MPI: ~1.2 µs software
    /// latency, ~100 ns per router, 6.8 GB/s links, 64 KiB rendezvous
    /// switch.
    pub fn tofud() -> Self {
        Self {
            sw_overhead: Time::micros(1.2),
            hop_latency: Time::nanos(100.0),
            bandwidth: Bandwidth::gb_per_sec(6.8),
            rendezvous_threshold: Bytes::kib(64.0),
            rendezvous_overhead: Time::micros(1.8),
        }
    }

    /// OmniPath with Intel MPI on MareNostrum 4: ~0.9 µs software latency,
    /// ~110 ns per switch, 12 GB/s links (after Table I), 64 KiB rendezvous.
    pub fn omnipath() -> Self {
        Self {
            sw_overhead: Time::micros(0.9),
            hop_latency: Time::nanos(110.0),
            bandwidth: Bandwidth::gb_per_sec(12.0),
            rendezvous_threshold: Bytes::kib(64.0),
            rendezvous_overhead: Time::micros(1.5),
        }
    }

    /// Transfer time for one message of `bytes` over `hops` routers on a
    /// route with the given `sharing` factor.
    pub fn message_time(&self, bytes: Bytes, hops: usize, sharing: f64) -> Time {
        assert!(sharing >= 1.0, "sharing factor below 1");
        assert!(bytes.value() >= 0.0, "negative message size");
        let effective_bw = Bandwidth::bytes_per_sec(self.bandwidth.value() / sharing);
        let mut t = self.sw_overhead + self.hop_latency * hops as f64 + bytes / effective_bw;
        if bytes.value() >= self.rendezvous_threshold.value() {
            t += self.rendezvous_overhead + self.hop_latency * (2 * hops) as f64;
        }
        t
    }

    /// The bandwidth an OSU-style loop reports for this message size/route:
    /// `s / t`.
    pub fn message_bandwidth(&self, bytes: Bytes, hops: usize, sharing: f64) -> Bandwidth {
        bytes / self.message_time(bytes, hops, sharing)
    }

    /// Latency of a zero-byte message (half round trip).
    pub fn zero_byte_latency(&self, hops: usize) -> Time {
        self.message_time(Bytes::ZERO, hops, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_latency_bound() {
        let l = LinkModel::tofud();
        let t = l.message_time(Bytes::new(256.0), 5, 1.0);
        // 1.2 µs + 0.5 µs + 256/6.8e9 ≈ 1.74 µs.
        assert!((t.as_micros() - 1.7376).abs() < 0.01, "{t}");
        // Reported bandwidth far below link peak.
        let bw = l
            .message_bandwidth(Bytes::new(256.0), 5, 1.0)
            .as_gb_per_sec();
        assert!(bw < 0.2, "bw {bw}");
    }

    #[test]
    fn large_messages_approach_link_peak() {
        let l = LinkModel::tofud();
        let bw = l
            .message_bandwidth(Bytes::mib(64.0), 2, 1.0)
            .as_gb_per_sec();
        assert!(bw > 6.0 && bw <= 6.8, "bw {bw}");
    }

    #[test]
    fn sharing_halves_effective_bandwidth() {
        let l = LinkModel::tofud();
        let full = l.message_bandwidth(Bytes::mib(16.0), 4, 1.0).value();
        let shared = l.message_bandwidth(Bytes::mib(16.0), 4, 2.0).value();
        let ratio = full / shared;
        assert!(ratio > 1.8 && ratio < 2.05, "ratio {ratio}");
    }

    #[test]
    fn rendezvous_penalty_kicks_in_at_threshold() {
        let l = LinkModel::tofud();
        let below = l.message_time(Bytes::kib(63.0), 3, 1.0);
        let above = l.message_time(Bytes::kib(64.0), 3, 1.0);
        // The jump exceeds the 1 KiB serialization delta alone.
        let serialization_delta = Bytes::kib(1.0) / l.bandwidth;
        assert!(above - below > serialization_delta + l.rendezvous_overhead * 0.9);
    }

    #[test]
    fn more_hops_cost_more() {
        let l = LinkModel::omnipath();
        let near = l.message_time(Bytes::new(8.0), 2, 1.0);
        let far = l.message_time(Bytes::new(8.0), 4, 1.0);
        assert!(far > near);
        assert!((far - near).value() - 2.0 * l.hop_latency.value() < 1e-12);
    }

    #[test]
    fn zero_byte_latency_is_overheads_only() {
        let l = LinkModel::tofud();
        let t = l.zero_byte_latency(3);
        assert!((t.as_micros() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sharing factor")]
    fn bad_sharing_rejected() {
        LinkModel::tofud().message_time(Bytes::new(1.0), 1, 0.9);
    }
}
