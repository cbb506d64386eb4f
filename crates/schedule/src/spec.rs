//! Spec strings: the one shared grammar for addressing and tuning
//! schedulers by name.
//!
//! A spec is `name` or `name?key=value&key=value`, e.g. `"etf?numa=on"` or
//! `"pipeline/base?ilp=off&hc_iters=200"`. Names may contain letters,
//! digits, `/`, `-`, `_` and `.`; keys are identifiers; values are any
//! `&`-free text. The experiments CLI, the daemon, the repo benchmark and
//! the examples all select schedulers through this grammar (via
//! `bsp_sched::Registry`), and `bsp_faults::FaultPlan` reads its
//! `faults?…` plans through it, so one parser — this module — defines it.
//!
//! ```
//! use bsp_schedule::spec::SchedulerSpec;
//!
//! let spec = SchedulerSpec::parse("pipeline/base?ilp=off&hc_iters=200").unwrap();
//! assert_eq!(spec.name(), "pipeline/base");
//! assert_eq!(spec.get("ilp"), Some("off"));
//! assert_eq!(spec.bool_param("ilp").unwrap(), Some(false));
//! assert_eq!(spec.usize_param("hc_iters").unwrap(), Some(200));
//! assert_eq!(spec.canonical(), "pipeline/base?hc_iters=200&ilp=off");
//! ```

use crate::scheduler::SchedulerKind;
use std::fmt;

/// A parse or lookup failure for a spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec was empty or had an empty name.
    EmptyName,
    /// The name contains a character outside `[A-Za-z0-9/_.-]`.
    BadName(String),
    /// A `key=value` pair was malformed.
    BadPair(String),
    /// The same key appeared twice.
    DuplicateKey(String),
    /// A value failed to parse as its expected type.
    BadValue {
        /// The offending key.
        key: String,
        /// The value as written.
        value: String,
        /// What the key expects (`"on|off"`, `"integer"`, …).
        expected: &'static str,
    },
    /// The scheduler accepts no parameter of this name.
    UnknownParam {
        /// Scheduler the spec addressed.
        scheduler: String,
        /// The unrecognized key.
        key: String,
        /// Keys the scheduler does accept.
        allowed: Vec<String>,
    },
    /// No registry entry has this name.
    UnknownScheduler {
        /// The name as written.
        name: String,
        /// All registered names.
        known: Vec<String>,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyName => write!(f, "empty scheduler name"),
            SpecError::BadName(n) => write!(
                f,
                "invalid scheduler name {n:?} (allowed: letters, digits, '/', '-', '_', '.')"
            ),
            SpecError::BadPair(p) => write!(f, "malformed parameter {p:?} (expected key=value)"),
            SpecError::DuplicateKey(k) => write!(f, "parameter {k:?} given twice"),
            SpecError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "parameter {key}={value:?}: expected {expected}"),
            SpecError::UnknownParam {
                scheduler,
                key,
                allowed,
            } => {
                if allowed.is_empty() {
                    write!(f, "{scheduler} takes no parameters, got {key:?}")
                } else {
                    write!(
                        f,
                        "{scheduler} has no parameter {key:?} (available: {})",
                        allowed.join(", ")
                    )
                }
            }
            SpecError::UnknownScheduler { name, known } => write!(
                f,
                "no scheduler named {name:?} (available: {})",
                known.join(", ")
            ),
        }
    }
}

impl std::error::Error for SpecError {}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | '-' | '_' | '.'))
}

/// A parsed spec string: a scheduler name plus `key=value` parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSpec {
    name: String,
    params: Vec<(String, String)>,
}

impl SchedulerSpec {
    /// Parses `name` or `name?key=value&…`.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let (name, query) = match s.split_once('?') {
            Some((n, q)) => (n, Some(q)),
            None => (s, None),
        };
        if name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        if !valid_name(name) {
            return Err(SpecError::BadName(name.to_string()));
        }
        let mut params: Vec<(String, String)> = Vec::new();
        if let Some(query) = query {
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(SpecError::BadPair(pair.to_string()));
                };
                if k.is_empty() || !valid_name(k) {
                    return Err(SpecError::BadPair(pair.to_string()));
                }
                if params.iter().any(|(pk, _)| pk == k) {
                    return Err(SpecError::DuplicateKey(k.to_string()));
                }
                params.push((k.to_string(), v.to_string()));
            }
        }
        Ok(SchedulerSpec {
            name: name.to_string(),
            params,
        })
    }

    /// A bare spec with no parameters.
    pub fn bare(name: &str) -> Self {
        SchedulerSpec {
            name: name.to_string(),
            params: Vec::new(),
        }
    }

    /// The scheduler name the spec addresses.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameters, in the order written.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `key` as a switch: `on`/`true`/`1` or `off`/`false`/`0`.
    pub fn bool_param(&self, key: &str) -> Result<Option<bool>, SpecError> {
        self.typed(key, "on|off", |v| match v {
            "on" | "true" | "1" => Some(true),
            "off" | "false" | "0" => Some(false),
            _ => None,
        })
    }

    /// Parses `key` as a non-negative integer.
    pub fn usize_param(&self, key: &str) -> Result<Option<usize>, SpecError> {
        self.typed(key, "non-negative integer", |v| v.parse().ok())
    }

    /// Parses `key` as an unsigned 64-bit integer.
    pub fn u64_param(&self, key: &str) -> Result<Option<u64>, SpecError> {
        self.typed(key, "non-negative integer", |v| v.parse().ok())
    }

    /// Parses `key` as a finite float.
    pub fn f64_param(&self, key: &str) -> Result<Option<f64>, SpecError> {
        self.typed(key, "number", |v| {
            v.parse::<f64>().ok().filter(|x| x.is_finite())
        })
    }

    /// Parses `key` with `parse`; a value it rejects is a
    /// [`SpecError::BadValue`] naming `expected`. The typed getters above
    /// are this with a fixed parser.
    pub fn typed<T>(
        &self,
        key: &str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => parse(v).map(Some).ok_or_else(|| SpecError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// Fails if any parameter key is outside `allowed` — registry factories
    /// call this so typos surface as errors instead of silent defaults.
    pub fn deny_unknown(&self, scheduler: &str, allowed: &[&str]) -> Result<(), SpecError> {
        for (k, _) in &self.params {
            if !allowed.contains(&k.as_str()) {
                return Err(SpecError::UnknownParam {
                    scheduler: scheduler.to_string(),
                    key: k.clone(),
                    allowed: allowed.iter().map(|s| s.to_string()).collect(),
                });
            }
        }
        Ok(())
    }

    /// The canonical rendering: name, then parameters sorted by key.
    /// `parse(spec.canonical())` round-trips to an equal spec (up to
    /// parameter order).
    pub fn canonical(&self) -> String {
        if self.params.is_empty() {
            return self.name.clone();
        }
        let mut params = self.params.clone();
        params.sort();
        let query: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}?{}", self.name, query.join("&"))
    }
}

/// Static metadata a registry entry carries about its scheduler: enough for
/// harnesses to select comparable subsets and for the CLI to print a
/// catalogue without constructing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerDescriptor {
    /// Stable name, also the spec-string address (`"etf"`,
    /// `"pipeline/base"`, …).
    pub name: &'static str,
    /// Algorithm family.
    pub kind: SchedulerKind,
    /// Whether the algorithm exploits per-pair NUMA coefficients (λ) beyond
    /// just being *costed* under them — at the entry's **default**
    /// configuration (spec parameters like `numa=on` can reconfigure an
    /// entry past what its descriptor advertises).
    pub numa_aware: bool,
    /// Whether repeated solves of the same request are bit-identical.
    /// Wall-clock-budgeted stages (the pipelines) are not.
    pub deterministic: bool,
    /// Whether the scheduler reacts to [`Budget`](crate::solve::Budget)
    /// deadlines between stages (single-stage schedulers run to completion
    /// regardless).
    pub supports_budget: bool,
    /// Spec parameters the factory accepts.
    pub params: &'static [&'static str],
    /// One-line description for catalogues.
    pub summary: &'static str,
}

impl SchedulerDescriptor {
    /// The canonical default spec string for this entry: its name. Feeding
    /// it back through `Registry::get` rebuilds the default-configured
    /// scheduler.
    pub fn spec(&self) -> String {
        self.name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_and_parameterized() {
        let s = SchedulerSpec::parse("etf").unwrap();
        assert_eq!(s.name(), "etf");
        assert!(s.params().is_empty());
        assert_eq!(s.canonical(), "etf");

        let s = SchedulerSpec::parse("pipeline/base?ilp=off&hc_iters=200").unwrap();
        assert_eq!(s.name(), "pipeline/base");
        assert_eq!(s.bool_param("ilp").unwrap(), Some(false));
        assert_eq!(s.usize_param("hc_iters").unwrap(), Some(200));
        assert_eq!(s.get("nope"), None);
        assert_eq!(s.bool_param("nope").unwrap(), None);
    }

    #[test]
    fn canonical_sorts_params_and_reparses() {
        let s = SchedulerSpec::parse("auto?ccr_hi=9&ccr_lo=3.5").unwrap();
        assert_eq!(s.canonical(), "auto?ccr_hi=9&ccr_lo=3.5");
        let s2 = SchedulerSpec::parse("auto?ccr_lo=3.5&ccr_hi=9").unwrap();
        assert_eq!(s.canonical(), s2.canonical());
        assert_eq!(s2.f64_param("ccr_lo").unwrap(), Some(3.5));
        let re = SchedulerSpec::parse(&s.canonical()).unwrap();
        assert_eq!(re.canonical(), s.canonical());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert_eq!(SchedulerSpec::parse(""), Err(SpecError::EmptyName));
        assert_eq!(SchedulerSpec::parse("?a=1"), Err(SpecError::EmptyName));
        assert!(matches!(
            SchedulerSpec::parse("et f"),
            Err(SpecError::BadName(_))
        ));
        assert!(matches!(
            SchedulerSpec::parse("etf?numa"),
            Err(SpecError::BadPair(_))
        ));
        assert!(matches!(
            SchedulerSpec::parse("etf?=on"),
            Err(SpecError::BadPair(_))
        ));
        assert_eq!(
            SchedulerSpec::parse("etf?numa=on&numa=off"),
            Err(SpecError::DuplicateKey("numa".into()))
        );
        let s = SchedulerSpec::parse("etf?numa=maybe").unwrap();
        assert!(matches!(
            s.bool_param("numa"),
            Err(SpecError::BadValue { .. })
        ));
    }

    #[test]
    fn deny_unknown_names_the_alternatives() {
        let s = SchedulerSpec::parse("pipeline/base?hc_itres=5").unwrap();
        let err = s
            .deny_unknown("pipeline/base", &["ilp", "hc_iters"])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("hc_itres"), "{msg}");
        assert!(msg.contains("hc_iters"), "{msg}");
        assert!(s.deny_unknown("pipeline/base", &["hc_itres"]).is_ok());
    }

    #[test]
    fn descriptor_spec_is_its_name() {
        let d = SchedulerDescriptor {
            name: "etf",
            kind: SchedulerKind::Baseline,
            numa_aware: false,
            deterministic: true,
            supports_budget: false,
            params: &["numa"],
            summary: "ETF list scheduling",
        };
        assert_eq!(d.spec(), "etf");
        assert_eq!(SchedulerSpec::parse(&d.spec()).unwrap().name(), d.name);
    }
}
