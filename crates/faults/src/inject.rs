//! The seeded fault injector and the shared virtual clock.
//!
//! One [`FaultInjector`] serves a whole ecosystem: the backend router
//! consults it per request path, the binder transports per transaction.
//! Decisions are pure functions of `(seed, rule index, per-rule call
//! sequence)` — no wall clock, no OS randomness — so the same plan and
//! seed replay the identical injection sequence, which the determinism
//! property test pins.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

use crate::plan::{FaultKind, FaultPlan, FaultRule, Plane};

/// SplitMix64: the deterministic hash behind probabilistic schedules and
/// backoff jitter. Small, seedable, and identical on every platform.
#[must_use]
pub fn det_hash(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies a body-corruption fault to a response payload. Non-corruption
/// kinds return the body unchanged.
#[must_use]
pub fn corrupt_body(kind: &FaultKind, mut body: Vec<u8>) -> Vec<u8> {
    match kind {
        FaultKind::TruncateBody { keep } => {
            body.truncate(*keep);
            body
        }
        FaultKind::GarbleBody => {
            // Length-preserving scramble: every parser downstream sees a
            // plausible-sized but unusable payload.
            for b in &mut body {
                *b ^= 0xA5;
            }
            body
        }
        _ => body,
    }
}

/// The simulation's shared logical clock, in milliseconds. Injected
/// latency and client backoff advance it; per-call timeouts read it.
/// Never tied to wall time, so runs replay exactly.
///
/// The clock also keeps a per-thread ledger of who advanced it. Several
/// clients can share one clock from concurrent threads, and each one
/// serializes its own durations onto the shared timeline in an order
/// the scheduler picks. A per-call budget therefore reads
/// [`advanced_by_current_thread_ms`](Self::advanced_by_current_thread_ms):
/// a call is charged only the virtual time its own thread spent, never
/// a concurrent neighbour's.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ms: AtomicU64,
    by_thread: Mutex<HashMap<ThreadId, u64>>,
}

impl VirtualClock {
    /// A clock at zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::Acquire)
    }

    /// Advances the clock by `ms` milliseconds, on behalf of the
    /// calling thread.
    pub fn advance_ms(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::AcqRel);
        let mut by_thread = self.by_thread.lock();
        let own = by_thread.entry(std::thread::current().id()).or_default();
        *own = own.wrapping_add(ms);
    }

    /// Total virtual time the calling thread has advanced this clock by.
    /// The difference between two readings on one thread is what that
    /// thread spent in between, whatever other threads did meanwhile.
    #[must_use]
    pub fn advanced_by_current_thread_ms(&self) -> u64 {
        self.by_thread.lock().get(&std::thread::current().id()).copied().unwrap_or(0)
    }
}

/// One injected fault, as recorded in the injector's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionEvent {
    /// The plane the fault fired on.
    pub plane: Plane,
    /// The operation label that triggered it.
    pub op: String,
    /// The fault kind's stable label.
    pub kind: &'static str,
    /// Index of the firing rule in the plan.
    pub rule: usize,
    /// The rule's matching-call sequence number when it fired.
    pub seq: u64,
}

struct RuleState {
    rule: FaultRule,
    /// Matching calls seen so far (drives the schedule).
    seq: AtomicU64,
}

/// Evaluates a [`FaultPlan`] deterministically against live traffic.
pub struct FaultInjector {
    seed: u64,
    rules: Vec<RuleState>,
    clock: Arc<VirtualClock>,
    log: Mutex<Vec<InjectionEvent>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultInjector({} rules, seed {})", self.rules.len(), self.seed)
    }
}

impl FaultInjector {
    /// Builds an injector for a plan. An empty plan yields an inert
    /// injector (every [`decide`](Self::decide) returns `None`).
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultInjector {
            seed,
            rules: plan
                .rules()
                .iter()
                .map(|rule| RuleState { rule: rule.clone(), seq: AtomicU64::new(0) })
                .collect(),
            clock: Arc::new(VirtualClock::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// An inert injector (the empty plan).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(&FaultPlan::empty(), 0)
    }

    /// Whether any rule exists at all. Callers on hot paths skip the
    /// decision entirely when inactive.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.rules.is_empty()
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Decides whether traffic labelled `op` on `plane` faults. The
    /// first firing rule wins; its fault kind is returned, the event is
    /// logged, and the `fault.injected.<kind>` counter bumps.
    pub fn decide(&self, plane: Plane, op: &str) -> Option<FaultKind> {
        if self.rules.is_empty() {
            return None;
        }
        for (index, state) in self.rules.iter().enumerate() {
            if !state.rule.matches(plane, op) {
                continue;
            }
            let seq = state.seq.fetch_add(1, Ordering::AcqRel);
            let roll = det_hash(self.seed, ((index as u64) << 40) ^ seq) % 1000;
            if !state.rule.schedule.fires(seq, roll) {
                continue;
            }
            let kind = state.rule.kind.clone();
            self.log.lock().push(InjectionEvent {
                plane,
                op: op.to_owned(),
                kind: kind.label(),
                rule: index,
                seq,
            });
            if wideleak_telemetry::is_enabled() {
                wideleak_telemetry::incr(&format!("fault.injected.{}", kind.label()));
            }
            return Some(kind);
        }
        None
    }

    /// Everything injected so far, in firing order — the determinism
    /// property test compares this across replays.
    #[must_use]
    pub fn injection_log(&self) -> Vec<InjectionEvent> {
        self.log.lock().clone()
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_count(&self) -> u64 {
        self.log.lock().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Schedule;

    fn burst_plan() -> FaultPlan {
        FaultPlan::builder()
            .server_fault("license/", FaultKind::ErrorCode, Schedule::FirstN { n: 2 })
            .binder_fault("decrypt_sample", FaultKind::Drop, Schedule::Once { at: 1 })
            .build()
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_active());
        for _ in 0..100 {
            assert_eq!(inj.decide(Plane::Server, "license/x"), None);
        }
        assert!(inj.injection_log().is_empty());
    }

    #[test]
    fn schedules_count_matching_calls_per_rule() {
        let inj = FaultInjector::new(&burst_plan(), 7);
        // license rule: first two matching calls fault, the rest pass.
        assert_eq!(inj.decide(Plane::Server, "license/netflix/t"), Some(FaultKind::ErrorCode));
        // Non-matching traffic does not consume the rule's sequence.
        assert_eq!(inj.decide(Plane::Server, "manifest/netflix/t"), None);
        assert_eq!(inj.decide(Plane::Server, "license/netflix/t"), Some(FaultKind::ErrorCode));
        assert_eq!(inj.decide(Plane::Server, "license/netflix/t"), None);
        // Binder rule fires only on its second matching call.
        assert_eq!(inj.decide(Plane::Binder, "decrypt_sample"), None);
        assert_eq!(inj.decide(Plane::Binder, "decrypt_sample"), Some(FaultKind::Drop));
        assert_eq!(inj.decide(Plane::Binder, "decrypt_sample"), None);
        assert_eq!(inj.injected_count(), 3);
    }

    #[test]
    fn same_seed_replays_identically() {
        let drive = |seed: u64| {
            let plan = FaultPlan::builder()
                .any_fault(FaultKind::Drop, Schedule::PerMille { p: 300 })
                .build();
            let inj = FaultInjector::new(&plan, seed);
            for i in 0..200u64 {
                let _ = inj.decide(Plane::Binder, if i % 2 == 0 { "open" } else { "close" });
            }
            inj.injection_log()
        };
        assert_eq!(drive(42), drive(42));
        assert_ne!(drive(42), drive(43), "different seeds draw differently");
    }

    #[test]
    fn corrupt_body_truncates_and_garbles() {
        let body = vec![1u8, 2, 3, 4];
        assert_eq!(corrupt_body(&FaultKind::TruncateBody { keep: 2 }, body.clone()), vec![1, 2]);
        let garbled = corrupt_body(&FaultKind::GarbleBody, body.clone());
        assert_eq!(garbled.len(), body.len());
        assert_ne!(garbled, body);
        assert_eq!(corrupt_body(&FaultKind::Drop, body.clone()), body);
    }

    #[test]
    fn virtual_clock_advances() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ms(), 0);
        clock.advance_ms(250);
        clock.advance_ms(50);
        assert_eq!(clock.now_ms(), 300);
    }

    #[test]
    fn virtual_clock_ledgers_each_threads_own_advances() {
        let clock = Arc::new(VirtualClock::new());
        clock.advance_ms(40);
        let other = Arc::clone(&clock);
        std::thread::spawn(move || {
            other.advance_ms(5_000);
            assert_eq!(other.advanced_by_current_thread_ms(), 5_000);
        })
        .join()
        .unwrap();
        assert_eq!(clock.now_ms(), 5_040, "the shared timeline sees both");
        assert_eq!(clock.advanced_by_current_thread_ms(), 40, "the ledger sees only ours");
    }

    #[test]
    fn injection_bumps_telemetry_counter() {
        wideleak_telemetry::enable();
        let plan = FaultPlan::builder()
            .server_fault("probe", FaultKind::GarbleBody, Schedule::Always)
            .build();
        let inj = FaultInjector::new(&plan, 1);
        assert!(inj.decide(Plane::Server, "probe/x").is_some());
        let snapshot = wideleak_telemetry::snapshot();
        assert!(snapshot.counters.iter().any(|(name, _)| name == "fault.injected.garble_body"));
    }
}
