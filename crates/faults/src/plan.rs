//! Declarative fault plans: what breaks, where, and on what schedule.
//!
//! A [`FaultPlan`] is a list of [`FaultRule`]s evaluated in order by the
//! [`FaultInjector`](crate::FaultInjector). Rules scope to a *plane*
//! (server request paths or binder transactions), optionally narrow to
//! operations whose label contains a substring, and carry a
//! [`Schedule`] deciding which matching calls actually fault.
//!
//! The plan is pure data (`Clone + PartialEq + Eq`), so it can live in
//! ecosystem configs and be compared across runs; probabilities are
//! expressed per-mille as integers to keep equality exact.

/// What kind of failure a rule injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The server rejects the request with a synthetic 5xx-style error
    /// (binder plane: the transaction panics server-side).
    ErrorCode,
    /// The response body is truncated to its first `keep` bytes.
    TruncateBody {
        /// Bytes to keep from the front of the body.
        keep: usize,
    },
    /// The response body is bit-garbled (length preserved, contents
    /// XOR-scrambled) — models mid-stream corruption.
    GarbleBody,
    /// The call completes but the shared virtual clock advances by `ms`
    /// first — models network or scheduler latency.
    Latency {
        /// Injected delay in virtual milliseconds.
        ms: u64,
    },
    /// The connection (or binder channel) drops: the caller sees a
    /// transport-level failure and no response.
    Drop,
    /// The handler panics mid-transaction (binder plane) — exercises the
    /// transports' panic isolation.
    Panic,
    /// The CDM's logical clock jumps forward by `secs` — models device
    /// clock skew, which expires loaded licenses early.
    ClockSkew {
        /// Seconds of forward skew.
        secs: u64,
    },
}

impl FaultKind {
    /// Stable label for telemetry counters (`fault.injected.<label>`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ErrorCode => "error_code",
            FaultKind::TruncateBody { .. } => "truncate_body",
            FaultKind::GarbleBody => "garble_body",
            FaultKind::Latency { .. } => "latency",
            FaultKind::Drop => "drop",
            FaultKind::Panic => "panic",
            FaultKind::ClockSkew { .. } => "clock_skew",
        }
    }
}

/// Which request plane a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// OTT backend requests (provisioning, license, CDN). The op label is
    /// the request path, e.g. `license/netflix/title-001`.
    Server,
    /// Binder transactions to the media DRM server. The op label is the
    /// `DrmCall` kind, e.g. `decrypt_sample`.
    Binder,
    /// Both planes.
    Any,
}

impl Plane {
    /// Whether a rule scoped to `self` applies to traffic on `at`.
    #[must_use]
    pub fn covers(self, at: Plane) -> bool {
        self == Plane::Any || self == at
    }
}

/// When a matching call actually faults. Schedules count *matching*
/// calls per rule, starting at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Every matching call.
    Always,
    /// Only the `at`-th matching call (0-based).
    Once {
        /// Index of the single faulted call.
        at: u64,
    },
    /// The first `n` matching calls.
    FirstN {
        /// How many calls fault before the rule goes quiet.
        n: u64,
    },
    /// Every `n`-th matching call (0, n, 2n, ...).
    EveryNth {
        /// The stride (clamped to ≥ 1).
        n: u64,
    },
    /// Each matching call faults with probability `p`/1000, decided by
    /// the injector's seeded hash — deterministic for a given seed.
    PerMille {
        /// Probability numerator out of 1000.
        p: u32,
    },
}

impl Schedule {
    /// Whether the `seq`-th matching call fires. `roll` is a seeded
    /// uniform draw in `0..1000` supplied by the injector.
    #[must_use]
    pub fn fires(&self, seq: u64, roll: u64) -> bool {
        match self {
            Schedule::Always => true,
            Schedule::Once { at } => seq == *at,
            Schedule::FirstN { n } => seq < *n,
            Schedule::EveryNth { n } => seq.is_multiple_of((*n).max(1)),
            Schedule::PerMille { p } => roll < u64::from(*p),
        }
    }
}

/// One fault rule: plane + operation scope + kind + schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The plane this rule watches.
    pub plane: Plane,
    /// Substring the operation label must contain (`None` = all ops).
    pub op_contains: Option<String>,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Which matching calls fault.
    pub schedule: Schedule,
}

impl FaultRule {
    /// Whether this rule matches traffic labelled `op` on plane `at`.
    #[must_use]
    pub fn matches(&self, at: Plane, op: &str) -> bool {
        self.plane.covers(at)
            && self.op_contains.as_deref().is_none_or(|needle| op.contains(needle))
    }
}

/// A full fault plan: an ordered rule list. The first firing rule wins
/// per call. The default plan is empty (no faults — production
/// behaviour, byte-identical study output).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Starts building a plan.
    #[must_use]
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder { rules: Vec::new() }
    }

    /// Whether the plan has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in evaluation order.
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// Builder for [`FaultPlan`] — the one place fault schedules are
/// composed.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    rules: Vec<FaultRule>,
}

impl FaultPlanBuilder {
    /// Adds a fully specified rule.
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a server-plane rule scoped to paths containing `op`.
    #[must_use]
    pub fn server_fault(self, op: &str, kind: FaultKind, schedule: Schedule) -> Self {
        self.rule(FaultRule {
            plane: Plane::Server,
            op_contains: Some(op.to_owned()),
            kind,
            schedule,
        })
    }

    /// Adds a binder-plane rule scoped to transaction kinds containing
    /// `op`.
    #[must_use]
    pub fn binder_fault(self, op: &str, kind: FaultKind, schedule: Schedule) -> Self {
        self.rule(FaultRule {
            plane: Plane::Binder,
            op_contains: Some(op.to_owned()),
            kind,
            schedule,
        })
    }

    /// Adds an unscoped rule covering both planes.
    #[must_use]
    pub fn any_fault(self, kind: FaultKind, schedule: Schedule) -> Self {
        self.rule(FaultRule { plane: Plane::Any, op_contains: None, kind, schedule })
    }

    /// Finishes the plan.
    #[must_use]
    pub fn build(self) -> FaultPlan {
        FaultPlan { rules: self.rules }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::empty(), FaultPlan::default());
    }

    #[test]
    fn builder_orders_rules() {
        let plan = FaultPlan::builder()
            .server_fault("license/", FaultKind::ErrorCode, Schedule::FirstN { n: 2 })
            .binder_fault("decrypt_sample", FaultKind::Drop, Schedule::Always)
            .build();
        assert_eq!(plan.rules().len(), 2);
        assert_eq!(plan.rules()[0].plane, Plane::Server);
        assert_eq!(plan.rules()[1].kind, FaultKind::Drop);
    }

    #[test]
    fn rule_matching_scopes_by_plane_and_substring() {
        let rule = FaultRule {
            plane: Plane::Server,
            op_contains: Some("license/".into()),
            kind: FaultKind::Drop,
            schedule: Schedule::Always,
        };
        assert!(rule.matches(Plane::Server, "license/netflix/title-001"));
        assert!(!rule.matches(Plane::Server, "manifest/netflix/title-001"));
        assert!(!rule.matches(Plane::Binder, "license/netflix/title-001"));
        let any = FaultRule {
            plane: Plane::Any,
            op_contains: None,
            kind: FaultKind::Drop,
            schedule: Schedule::Always,
        };
        assert!(any.matches(Plane::Binder, "anything"));
    }

    #[test]
    fn schedules_fire_as_documented() {
        assert!(Schedule::Always.fires(99, 0));
        assert!(Schedule::Once { at: 3 }.fires(3, 0));
        assert!(!Schedule::Once { at: 3 }.fires(4, 0));
        assert!(Schedule::FirstN { n: 2 }.fires(1, 0));
        assert!(!Schedule::FirstN { n: 2 }.fires(2, 0));
        assert!(Schedule::EveryNth { n: 3 }.fires(0, 0));
        assert!(Schedule::EveryNth { n: 3 }.fires(6, 0));
        assert!(!Schedule::EveryNth { n: 3 }.fires(4, 0));
        // Zero stride clamps instead of dividing by zero.
        assert!(Schedule::EveryNth { n: 0 }.fires(7, 0));
        assert!(Schedule::PerMille { p: 500 }.fires(0, 499));
        assert!(!Schedule::PerMille { p: 500 }.fires(0, 500));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(FaultKind::ErrorCode.label(), "error_code");
        assert_eq!(FaultKind::TruncateBody { keep: 4 }.label(), "truncate_body");
        assert_eq!(FaultKind::ClockSkew { secs: 1 }.label(), "clock_skew");
    }
}
