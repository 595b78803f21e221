//! Seeded, deterministic bandwidth model for the CDN plane.
//!
//! Real OTT clients stream under bandwidth pressure; this module gives
//! every simulated client a private token-bucket link whose capacity
//! follows a scheduled step function, so segment fetches take simulated
//! transfer time and can stall. Everything is integer math over a
//! per-client *local* timeline: a link's behaviour is a pure function of
//! `(seed, client index, schedule)` regardless of thread interleaving,
//! which is what keeps the `wideleak adapt` study byte-identical per
//! seed. Wall-clock elapsed time is mirrored onto the shared
//! [`wideleak_faults::VirtualClock`] by the playback path, so license
//! expiry and fault schedules see adaptation time pass.

use wideleak_faults::det_hash;

/// Seed salt for deriving per-client rate multipliers.
const LINK_SALT: u64 = 0xBA2D_0001;

/// Floor rate applied when the schedule tail declares zero capacity:
/// the link crawls instead of stalling forever, so every transfer
/// terminates deterministically.
const TAIL_FLOOR_BPS: u64 = 1_000;

/// A capacity step function: ordered `(from_ms, capacity_bps)` pairs on
/// the client's local timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthSchedule {
    /// Steps sorted by start time; the first step always starts at 0.
    steps: Vec<(u64, u64)>,
}

impl BandwidthSchedule {
    /// A constant-capacity schedule.
    #[must_use]
    pub fn flat(capacity_bps: u64) -> Self {
        BandwidthSchedule { steps: vec![(0, capacity_bps)] }
    }

    /// Builds a schedule from `(from_ms, capacity_bps)` steps.
    ///
    /// Steps are sorted by start time; a step at 0 is synthesised from
    /// the earliest capacity when missing so the link is never
    /// undefined.
    #[must_use]
    pub fn steps(mut steps: Vec<(u64, u64)>) -> Self {
        if steps.is_empty() {
            return Self::flat(0);
        }
        steps.sort_unstable();
        if steps[0].0 != 0 {
            let first_capacity = steps[0].1;
            steps.insert(0, (0, first_capacity));
        }
        BandwidthSchedule { steps }
    }

    /// Declared capacity in bits/second at a local timestamp.
    #[must_use]
    pub fn capacity_at(&self, local_ms: u64) -> u64 {
        self.steps.iter().rev().find(|&&(from, _)| from <= local_ms).map_or(0, |&(_, bps)| bps)
    }

    /// Start of the next capacity step strictly after `local_ms`.
    #[must_use]
    pub fn next_step_after(&self, local_ms: u64) -> Option<u64> {
        self.steps.iter().map(|&(from, _)| from).find(|&from| from > local_ms)
    }

    /// The lowest scheduled capacity (useful for sizing expectations).
    #[must_use]
    pub fn min_capacity(&self) -> u64 {
        self.steps.iter().map(|&(_, bps)| bps).min().unwrap_or(0)
    }
}

/// Fleet-level bandwidth configuration: one schedule shared by every
/// client, individualised by a seeded per-client rate multiplier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthConfig {
    /// The capacity step function every client's link follows.
    pub schedule: BandwidthSchedule,
    /// Token-bucket burst allowance in bits (instantly served on a
    /// fresh or idle link).
    pub burst_bits: u64,
    /// Half-width of the per-client rate spread in permille: each
    /// client's capacity is scaled by a seeded multiplier drawn from
    /// `1000 ± spread`.
    pub spread_permille: u64,
}

impl BandwidthConfig {
    /// An effectively unconstrained link (10 Gbps, no spread): adaptive
    /// playbacks complete in ~0 simulated time, matching the
    /// unconditional CDN the non-adaptive paths see.
    #[must_use]
    pub fn unconstrained() -> Self {
        BandwidthConfig {
            schedule: BandwidthSchedule::flat(10_000_000_000),
            burst_bits: 0,
            spread_permille: 0,
        }
    }

    /// A flat-capacity config with a default burst and ±10% spread.
    #[must_use]
    pub fn flat(capacity_bps: u64) -> Self {
        BandwidthConfig {
            schedule: BandwidthSchedule::flat(capacity_bps),
            burst_bits: 2_000_000,
            spread_permille: 100,
        }
    }

    /// Mints the deterministic link for one client of the fleet.
    #[must_use]
    pub fn link(&self, seed: u64, client_idx: u64) -> ClientLink {
        let spread = self.spread_permille.min(999);
        let rate_permille = if spread == 0 {
            1000
        } else {
            1000 - spread + det_hash(seed ^ LINK_SALT, client_idx) % (2 * spread + 1)
        };
        ClientLink {
            schedule: self.schedule.clone(),
            rate_permille,
            burst_bits: self.burst_bits,
            tokens_bits: self.burst_bits,
            local_now_ms: 0,
        }
    }
}

/// Outcome of one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Transfer {
    /// Total simulated transfer time in milliseconds.
    pub elapsed_ms: u64,
    /// Portion of `elapsed_ms` spent stalled on a zero-capacity step.
    pub stalled_ms: u64,
}

/// One client's private bandwidth link: a token bucket over a scheduled
/// capacity step function, advanced on its own local timeline.
#[derive(Debug, Clone)]
pub struct ClientLink {
    schedule: BandwidthSchedule,
    /// Seeded per-client capacity multiplier in permille.
    rate_permille: u64,
    burst_bits: u64,
    tokens_bits: u64,
    local_now_ms: u64,
}

impl ClientLink {
    /// The link's local timestamp in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.local_now_ms
    }

    fn scaled_capacity_at(&self, local_ms: u64) -> u64 {
        let base = u128::from(self.schedule.capacity_at(local_ms));
        u64::try_from(base * u128::from(self.rate_permille) / 1000).unwrap_or(u64::MAX)
    }

    /// Simulates transferring `bits` over the link, consuming burst
    /// tokens first and then integrating scheduled capacity step by
    /// step. Advances the local timeline by the returned elapsed time.
    pub fn transfer(&mut self, bits: u64) -> Transfer {
        let served_from_burst = self.tokens_bits.min(bits);
        self.tokens_bits -= served_from_burst;
        let mut remaining = u128::from(bits - served_from_burst);
        let mut out = Transfer::default();
        while remaining > 0 {
            let rate = self.scaled_capacity_at(self.local_now_ms);
            let boundary = self.schedule.next_step_after(self.local_now_ms);
            if rate == 0 {
                match boundary {
                    // Stalled: nothing moves until the next step.
                    Some(next) => {
                        let wait = next - self.local_now_ms;
                        self.local_now_ms = next;
                        out.elapsed_ms += wait;
                        out.stalled_ms += wait;
                        continue;
                    }
                    // Dead tail: crawl at the floor rate so the
                    // transfer still terminates.
                    None => {
                        let ms = (remaining * 1000).div_ceil(u128::from(TAIL_FLOOR_BPS));
                        let ms = u64::try_from(ms).unwrap_or(u64::MAX);
                        self.local_now_ms = self.local_now_ms.saturating_add(ms);
                        out.elapsed_ms = out.elapsed_ms.saturating_add(ms);
                        out.stalled_ms = out.stalled_ms.saturating_add(ms);
                        return out;
                    }
                }
            }
            let need_ms = (remaining * 1000).div_ceil(u128::from(rate));
            let window_ms = boundary.map(|next| u128::from(next - self.local_now_ms));
            match window_ms {
                Some(window) if need_ms > window => {
                    // Serve what this step allows, then cross into the
                    // next step. The window may serve zero whole bits at
                    // very low rates; time still advances, so the loop
                    // always reaches the next boundary.
                    let served = u128::from(rate) * window / 1000;
                    remaining -= served.min(remaining);
                    let window = u64::try_from(window).unwrap_or(u64::MAX);
                    self.local_now_ms = self.local_now_ms.saturating_add(window);
                    out.elapsed_ms = out.elapsed_ms.saturating_add(window);
                }
                _ => {
                    let ms = u64::try_from(need_ms).unwrap_or(u64::MAX);
                    self.local_now_ms = self.local_now_ms.saturating_add(ms);
                    out.elapsed_ms = out.elapsed_ms.saturating_add(ms);
                    remaining = 0;
                }
            }
        }
        out
    }

    /// Advances the local timeline without transferring: the buffer is
    /// draining, and burst tokens accrue at the current capacity up to
    /// the configured burst.
    pub fn idle(&mut self, ms: u64) {
        let earned = u128::from(self.scaled_capacity_at(self.local_now_ms)) * u128::from(ms) / 1000;
        let earned = u64::try_from(earned).unwrap_or(u64::MAX);
        self.tokens_bits = self.tokens_bits.saturating_add(earned).min(self.burst_bits);
        self.local_now_ms = self.local_now_ms.saturating_add(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_link_serves_at_declared_rate() {
        // 1 Mbps, no burst, no spread: 1_000_000 bits take 1000 ms.
        let config = BandwidthConfig {
            schedule: BandwidthSchedule::flat(1_000_000),
            burst_bits: 0,
            spread_permille: 0,
        };
        let mut link = config.link(7, 0);
        let t = link.transfer(1_000_000);
        assert_eq!(t, Transfer { elapsed_ms: 1000, stalled_ms: 0 });
        assert_eq!(link.now_ms(), 1000);
    }

    #[test]
    fn burst_tokens_serve_instantly_and_refill_on_idle() {
        let config = BandwidthConfig {
            schedule: BandwidthSchedule::flat(1_000_000),
            burst_bits: 500_000,
            spread_permille: 0,
        };
        let mut link = config.link(7, 0);
        assert_eq!(link.transfer(500_000).elapsed_ms, 0, "fully served from burst");
        assert_eq!(link.transfer(1_000_000).elapsed_ms, 1000, "bucket now empty");
        link.idle(250);
        assert_eq!(link.transfer(250_000).elapsed_ms, 0, "idle refilled 250k bits");
    }

    #[test]
    fn capacity_steps_integrate_across_boundaries() {
        // 2 Mbps for 1 s, then 500 kbps: 3M bits = 2M in the first
        // second + 1M at 500 kbps = 1000 + 2000 ms.
        let config = BandwidthConfig {
            schedule: BandwidthSchedule::steps(vec![(0, 2_000_000), (1000, 500_000)]),
            burst_bits: 0,
            spread_permille: 0,
        };
        let mut link = config.link(7, 0);
        assert_eq!(link.transfer(3_000_000).elapsed_ms, 3000);
    }

    #[test]
    fn zero_capacity_step_stalls_until_recovery() {
        let config = BandwidthConfig {
            schedule: BandwidthSchedule::steps(vec![(0, 0), (2000, 1_000_000)]),
            burst_bits: 0,
            spread_permille: 0,
        };
        let mut link = config.link(7, 0);
        let t = link.transfer(1_000_000);
        assert_eq!(t.stalled_ms, 2000, "waited out the outage");
        assert_eq!(t.elapsed_ms, 3000);
    }

    #[test]
    fn dead_tail_crawls_but_terminates() {
        let config = BandwidthConfig {
            schedule: BandwidthSchedule::flat(0),
            burst_bits: 0,
            spread_permille: 0,
        };
        let mut link = config.link(7, 0);
        let t = link.transfer(10_000);
        assert_eq!(t.elapsed_ms, 10_000, "10k bits at the 1 kbps floor");
        assert_eq!(t.stalled_ms, t.elapsed_ms);
    }

    #[test]
    fn links_are_pure_functions_of_seed_and_index() {
        let config = BandwidthConfig::flat(1_500_000);
        let mut a = config.link(42, 3);
        let mut b = config.link(42, 3);
        for bits in [100_000u64, 2_000_000, 50_000, 900_000] {
            assert_eq!(a.transfer(bits), b.transfer(bits));
        }
        // A different client index gets a different (but deterministic)
        // multiplier with the default ±10% spread.
        let c = config.link(42, 4);
        assert!(c.rate_permille >= 900 && c.rate_permille <= 1100);
    }

    #[test]
    fn schedule_normalisation() {
        let s = BandwidthSchedule::steps(vec![(5000, 200), (1000, 700)]);
        assert_eq!(s.capacity_at(0), 700, "a step at 0 is synthesised");
        assert_eq!(s.capacity_at(1500), 700);
        assert_eq!(s.capacity_at(5000), 200);
        assert_eq!(s.next_step_after(0), Some(1000));
        assert_eq!(s.next_step_after(5000), None);
        assert_eq!(s.min_capacity(), 200);
    }
}
