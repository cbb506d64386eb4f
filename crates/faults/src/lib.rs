//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is parsed from a spec string in the same `name?k=v&…`
//! grammar as every other registry spec in the workspace, by the same
//! parser ([`SchedulerSpec`]), so a malformed plan fails with the same
//! [`SpecError`]s:
//!
//! ```text
//! faults?seed=7&io_err=0.01&drop=0.005&panic=0.001&slow=0.02&slow_ms=50
//! ```
//!
//! Each parameter names a fault *kind* and its per-decision probability;
//! `slow_ms` sizes the injected latency, `max=<n>` caps the total number
//! of injected faults (so e.g. `panic=1.0&max=1` poisons exactly one
//! operation and then gets out of the way), and `only=<site,…>` restricts
//! injection to named [`Site`]s.
//!
//! Decisions are **deterministic**: every injection site owns an atomic
//! draw counter, and the n-th decision at site `s` is a pure function of
//! `(seed, s, n)` (a splitmix64 finalizer). Replaying the same request
//! sequence against the same plan spec yields the same faults in the same
//! places — chaos runs are reproducible, which turns "it crashed once in
//! prod" into a seed.
//!
//! Plans reach injection points through a *scoped thread-local*: a server
//! (or test) [`install`]s its plan around the work it wants perturbed and
//! every `bsp-par`/`bsp-online` hook below consults [`current`]. When no
//! plan is installed anywhere in the process, [`current`] is a single
//! relaxed atomic load — the disabled hooks are free.
//!
//! ```
//! use bsp_faults::{FaultPlan, Fault, Site};
//!
//! let plan = FaultPlan::parse("faults?seed=7&panic=1.0&max=1").unwrap();
//! assert_eq!(plan.fault_at(Site::Job), Some(Fault::Panic));
//! assert_eq!(plan.fault_at(Site::Job), None, "max=1 spent the budget");
//! assert_eq!(plan.injected_total(), 1);
//! ```

use bsp_schedule::spec::{SchedulerSpec, SpecError};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Injection sites threaded through the stack. Each site owns its own
/// deterministic decision stream; the site names below are the tokens the
/// `only=` spec parameter accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Server connection reads (one decision per protocol line).
    Read,
    /// Server frame writes (one decision per outgoing frame).
    Write,
    /// Serve worker job bodies (one decision per job a worker runs).
    Job,
    /// Result-store loads.
    StoreLoad,
    /// Result-store flushes.
    StoreSave,
    /// `bsp-par` worker chunk bodies.
    Par,
    /// Stream-session event pushes in `bsp-serve`.
    Stream,
    /// `bsp-online` re-plan passes.
    Online,
}

/// Number of distinct [`Site`]s (sizes the per-site counter arrays).
pub const N_SITES: usize = 8;

const ALL_SITES: [Site; N_SITES] = [
    Site::Read,
    Site::Write,
    Site::Job,
    Site::StoreLoad,
    Site::StoreSave,
    Site::Par,
    Site::Stream,
    Site::Online,
];

impl Site {
    /// Stable site index into the per-site counter arrays.
    pub fn idx(self) -> usize {
        match self {
            Site::Read => 0,
            Site::Write => 1,
            Site::Job => 2,
            Site::StoreLoad => 3,
            Site::StoreSave => 4,
            Site::Par => 5,
            Site::Stream => 6,
            Site::Online => 7,
        }
    }

    /// The spec token naming this site (`only=` parameter).
    pub fn name(self) -> &'static str {
        match self {
            Site::Read => "read",
            Site::Write => "write",
            Site::Job => "job",
            Site::StoreLoad => "store.load",
            Site::StoreSave => "store.save",
            Site::Par => "par",
            Site::Stream => "stream",
            Site::Online => "online",
        }
    }

    /// Parses a spec token back into a site.
    pub fn from_name(name: &str) -> Option<Site> {
        ALL_SITES.iter().copied().find(|s| s.name() == name)
    }
}

/// One injected fault, drawn at an injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Simulate an I/O error (a failed read/write/flush).
    IoErr,
    /// Simulate a dropped connection or lost message.
    Drop,
    /// Panic at the injection point (exercises panic isolation).
    Panic,
    /// Sleep for the plan's `slow_ms` before proceeding.
    Slow(u64),
}

impl Fault {
    fn kind_idx(self) -> usize {
        match self {
            Fault::IoErr => 0,
            Fault::Drop => 1,
            Fault::Panic => 2,
            Fault::Slow(_) => 3,
        }
    }
}

/// The parameters a fault spec accepts.
const KEYS: [&str; 8] = [
    "seed", "io_err", "drop", "panic", "slow", "slow_ms", "max", "only",
];

/// The site mask of an `only=` list: one or more site names, separated by
/// commas. `None` if a name is unknown or the list names no site.
fn site_mask(list: &str) -> Option<u16> {
    let mut mask = 0u16;
    for name in list.split(',').filter(|t| !t.is_empty()) {
        mask |= 1 << Site::from_name(name)?.idx();
    }
    (mask != 0).then_some(mask)
}

/// A deterministic fault-injection plan. See the crate docs for the spec
/// grammar and determinism contract. Cheap to share behind an [`Arc`];
/// the per-site draw counters and injection tallies live inside.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    io_err: f64,
    drop_p: f64,
    panic_p: f64,
    slow_p: f64,
    slow_ms: u64,
    max: Option<u64>,
    /// Site mask from `only=`; bit `Site::idx()` set = site enabled.
    site_mask: u16,
    draws: [AtomicU64; N_SITES],
    used: AtomicU64,
    injected: [AtomicU64; 4],
    metrics: [bsp_obs::Counter; 4],
}

/// splitmix64 finalizer over `(seed, site, n)`, mapped to `[0, 1)`.
fn unit(seed: u64, site: Site, n: u64) -> f64 {
    let mut x = seed
        ^ (site.idx() as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
        ^ n.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Parses a fault spec (crate docs have the grammar). Probabilities
    /// must lie in `[0, 1]` and `only=` must name at least one site;
    /// unknown and repeated keys are typed errors, not ignored.
    pub fn parse(spec: &str) -> Result<FaultPlan, SpecError> {
        let spec = SchedulerSpec::parse(spec)?;
        if spec.name() != "faults" {
            return Err(SpecError::UnknownScheduler {
                name: spec.name().to_string(),
                known: vec!["faults".to_string()],
            });
        }
        spec.deny_unknown("faults", &KEYS)?;
        let prob = |key| {
            let in_range = |v: &str| v.parse().ok().filter(|p| (0.0..=1.0).contains(p));
            Ok::<f64, SpecError>(
                spec.typed(key, "probability in [0, 1]", in_range)?
                    .unwrap_or(0.0),
            )
        };
        let only = "one or more of read,write,job,store.load,store.save,par,stream,online";
        let reg = bsp_obs::global();
        let metric = |kind: &str| reg.counter("bsp_faults_injected_total", &[("kind", kind)]);
        Ok(FaultPlan {
            seed: spec.u64_param("seed")?.unwrap_or(0),
            io_err: prob("io_err")?,
            drop_p: prob("drop")?,
            panic_p: prob("panic")?,
            slow_p: prob("slow")?,
            slow_ms: spec.u64_param("slow_ms")?.unwrap_or(50),
            max: spec.u64_param("max")?,
            site_mask: spec.typed("only", only, site_mask)?.unwrap_or(u16::MAX),
            draws: Default::default(),
            used: AtomicU64::new(0),
            injected: Default::default(),
            metrics: [
                metric("io_err"),
                metric("drop"),
                metric("panic"),
                metric("slow"),
            ],
        })
    }

    /// The canonical spec string of this plan (parameters in fixed order,
    /// zero-probability kinds omitted).
    pub fn spec(&self) -> String {
        let mut clauses = vec![format!("seed={}", self.seed)];
        let mut push_prob = |key: &str, v: f64| {
            if v > 0.0 {
                clauses.push(format!("{key}={v}"));
            }
        };
        push_prob("io_err", self.io_err);
        push_prob("drop", self.drop_p);
        push_prob("panic", self.panic_p);
        push_prob("slow", self.slow_p);
        if self.slow_p > 0.0 {
            clauses.push(format!("slow_ms={}", self.slow_ms));
        }
        if let Some(m) = self.max {
            clauses.push(format!("max={m}"));
        }
        if self.site_mask != u16::MAX {
            let names: Vec<&str> = ALL_SITES
                .iter()
                .filter(|s| self.site_mask & (1 << s.idx()) != 0)
                .map(|s| s.name())
                .collect();
            clauses.push(format!("only={}", names.join(",")));
        }
        format!("faults?{}", clauses.join("&"))
    }

    /// Draws the next decision at `site`. Returns the fault to inject, or
    /// `None` (no fault this time / site filtered / `max` budget spent).
    /// Every call consumes exactly one position of the site's decision
    /// stream, so the sequence of outcomes at a site is a pure function
    /// of the plan spec.
    pub fn fault_at(&self, site: Site) -> Option<Fault> {
        if self.site_mask & (1 << site.idx()) == 0 {
            return None;
        }
        let n = self.draws[site.idx()].fetch_add(1, Ordering::Relaxed);
        let u = unit(self.seed, site, n);
        let mut acc = self.panic_p;
        let fault = if u < acc {
            Fault::Panic
        } else if u < {
            acc += self.drop_p;
            acc
        } {
            Fault::Drop
        } else if u < {
            acc += self.io_err;
            acc
        } {
            Fault::IoErr
        } else if u < {
            acc += self.slow_p;
            acc
        } {
            Fault::Slow(self.slow_ms)
        } else {
            return None;
        };
        if let Some(max) = self.max {
            if self.used.fetch_add(1, Ordering::Relaxed) >= max {
                return None;
            }
        }
        self.injected[fault.kind_idx()].fetch_add(1, Ordering::Relaxed);
        self.metrics[fault.kind_idx()].inc();
        Some(fault)
    }

    /// Compute-site helper: honors `Panic` (panics with a tagged message)
    /// and `Slow` (sleeps); I/O kinds do not apply and are swallowed. Used
    /// by `bsp-par` chunk bodies, serve job bodies and online re-plans.
    pub fn apply_sync(&self, site: Site) {
        match self.fault_at(site) {
            Some(Fault::Panic) => panic!("injected fault: panic at site {:?}", site.name()),
            Some(Fault::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
    }

    /// Injected counts per kind, in `(io_err, drop, panic, slow)` order.
    pub fn injected_counts(&self) -> [u64; 4] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
            self.injected[2].load(Ordering::Relaxed),
            self.injected[3].load(Ordering::Relaxed),
        ]
    }

    /// Total faults injected by this plan so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_counts().iter().sum()
    }

    /// Whether every probability is zero (the plan can never fire).
    pub fn is_noop(&self) -> bool {
        self.io_err == 0.0 && self.drop_p == 0.0 && self.panic_p == 0.0 && self.slow_p == 0.0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

// ---------------------------------------------------------------------
// Scoped thread-local plan: `install` sets the calling thread's current
// plan and returns a guard restoring the previous one on drop. `current`
// is gated by a process-wide count of live installs, so with no plan
// anywhere it costs one relaxed load.

static ACTIVE_PLANS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Guard returned by [`install`]; restores the previously installed plan
/// (if any) when dropped.
pub struct PlanGuard {
    prev: Option<Arc<FaultPlan>>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        ACTIVE_PLANS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Installs `plan` as the calling thread's current fault plan for the
/// guard's lifetime. Nested installs stack (inner shadows outer).
pub fn install(plan: Arc<FaultPlan>) -> PlanGuard {
    ACTIVE_PLANS.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.borrow_mut().replace(plan));
    PlanGuard { prev }
}

/// The calling thread's installed fault plan, if any. With no plan
/// installed anywhere in the process this is a single relaxed atomic
/// load — the hooks in hot paths are free when injection is off.
#[inline]
pub fn current() -> Option<Arc<FaultPlan>> {
    if ACTIVE_PLANS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "faults?seed=7&io_err=0.01&drop=0.005&panic=0.001&slow=0.02&slow_ms=50",
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.spec(),
            "faults?seed=7&io_err=0.01&drop=0.005&panic=0.001&slow=0.02&slow_ms=50"
        );
        // Canonical form is a fixed point.
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap().spec(), plan.spec());

        assert!(matches!(
            FaultPlan::parse("chaos?seed=1"),
            Err(SpecError::UnknownScheduler { .. })
        ));
        match FaultPlan::parse("faults?frequency=1") {
            Err(SpecError::UnknownParam { key, allowed, .. }) => {
                assert_eq!(key, "frequency");
                assert_eq!(allowed, KEYS);
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        assert!(matches!(
            FaultPlan::parse("faults?panic=1.5"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("faults?panic"),
            Err(SpecError::BadPair(_))
        ));
        assert_eq!(
            FaultPlan::parse("faults?seed=1&seed=2").err(),
            Some(SpecError::DuplicateKey("seed".into()))
        );
        // An empty site list would inject nothing anywhere, silently.
        for spec in ["faults?only=job,nowhere", "faults?only=", "faults?only=,"] {
            assert!(
                matches!(
                    FaultPlan::parse(spec),
                    Err(SpecError::BadValue { ref key, .. }) if key == "only"
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn decision_streams_are_deterministic_per_site() {
        let spec = "faults?seed=42&io_err=0.2&drop=0.1&panic=0.05&slow=0.1&slow_ms=5";
        let a = FaultPlan::parse(spec).unwrap();
        let b = FaultPlan::parse(spec).unwrap();
        for site in [Site::Read, Site::Write, Site::Job, Site::Par] {
            let sa: Vec<_> = (0..200).map(|_| a.fault_at(site)).collect();
            let sb: Vec<_> = (0..200).map(|_| b.fault_at(site)).collect();
            assert_eq!(sa, sb, "site {:?} stream differs", site.name());
            assert!(
                sa.iter().any(|f| f.is_some()),
                "probabilities this high must fire within 200 draws"
            );
        }
        assert_eq!(a.injected_counts(), b.injected_counts());
    }

    #[test]
    fn zero_probability_never_fires_and_one_always_fires() {
        let silent = FaultPlan::parse("faults?seed=1").unwrap();
        assert!(silent.is_noop());
        assert!((0..500).all(|_| silent.fault_at(Site::Job).is_none()));

        let loud = FaultPlan::parse("faults?seed=1&panic=1.0").unwrap();
        assert!((0..50).all(|_| loud.fault_at(Site::Job) == Some(Fault::Panic)));
    }

    #[test]
    fn max_caps_total_injections() {
        let plan = FaultPlan::parse("faults?seed=3&panic=1.0&max=2").unwrap();
        let fired: Vec<_> = (0..10).map(|_| plan.fault_at(Site::Job)).collect();
        assert_eq!(fired.iter().filter(|f| f.is_some()).count(), 2);
        assert!(fired[..2].iter().all(|f| f.is_some()), "cap spends first");
        assert_eq!(plan.injected_total(), 2);
    }

    #[test]
    fn only_filters_sites() {
        let plan = FaultPlan::parse("faults?seed=3&panic=1.0&only=par").unwrap();
        assert_eq!(plan.fault_at(Site::Job), None);
        assert_eq!(plan.fault_at(Site::Par), Some(Fault::Panic));
        assert!(plan.spec().contains("only=par"));
        // Site names with dots; the canonical list is in site order.
        let plan = FaultPlan::parse("faults?panic=1&only=store.save,job,store.load").unwrap();
        assert_eq!(
            plan.spec(),
            "faults?seed=0&panic=1&only=job,store.load,store.save"
        );
        assert_eq!(plan.fault_at(Site::Read), None);
        assert_eq!(plan.fault_at(Site::StoreSave), Some(Fault::Panic));
    }

    #[test]
    fn scoped_install_nests_and_restores() {
        assert!(current().is_none());
        let outer = Arc::new(FaultPlan::parse("faults?seed=1").unwrap());
        let inner = Arc::new(FaultPlan::parse("faults?seed=2").unwrap());
        {
            let _g1 = install(outer.clone());
            assert_eq!(current().unwrap().seed(), 1);
            {
                let _g2 = install(inner);
                assert_eq!(current().unwrap().seed(), 2);
            }
            assert_eq!(current().unwrap().seed(), 1);
        }
        assert!(current().is_none());
    }

    #[test]
    fn apply_sync_panics_on_injected_panic() {
        let plan = FaultPlan::parse("faults?seed=1&panic=1.0&max=1").unwrap();
        let caught = std::panic::catch_unwind(|| plan.apply_sync(Site::Job));
        assert!(caught.is_err());
        // Budget spent: the next application is a no-op.
        plan.apply_sync(Site::Job);
    }
}
