//! Spec-addressable problem instances: named, generatable, persistable
//! (DAG, machine) pairs.
//!
//! PR 2 made *schedulers* addressable by spec string
//! (`"pipeline/base?ilp=off"`); this crate gives *instances* the same
//! treatment. A full instance spec is
//!
//! ```text
//! <family>?key=value&…  [@ bsp?p=8&g=1&l=5&numa=tree&delta=3]
//! ```
//!
//! — the DAG side resolved by an [`InstanceSource`] from the
//! [`InstanceRegistry`], the machine side by [`MachineSpec`] — so
//! `"spmv?n=1000&q=0.3 @ bsp?p=8&numa=tree"` fully names a reproducible
//! scheduling problem. Both sides reuse the shared
//! [`SchedulerSpec`](bsp_schedule::spec::SchedulerSpec) grammar from PR 2.
//!
//! Generated [`Instance`]s serialize to JSON (and JSON-lines, via [`io`])
//! through the workspace serde, so sweeps can be saved, diffed across
//! revisions, and replayed:
//!
//! ```
//! use bsp_instance::{io, Instance, InstanceRegistry};
//!
//! let inst = InstanceRegistry::standard()
//!     .generate_one("forkjoin?chains=2&depth=2&stages=1 @ bsp?p=4", 42)
//!     .unwrap();
//! let text = io::to_json(&inst);
//! let back: Instance = io::from_json(&text).unwrap();
//! assert_eq!(back, inst);
//! ```

pub mod edit;
pub mod machine;
pub mod source;
pub mod trace;

pub use edit::{apply_edits, DagEdit, EditError, EditOutcome};
pub use machine::{MachineSpec, NumaSpec};
pub use source::{
    InstanceDescriptor, InstanceError, InstanceFamily, InstanceRegistry, InstanceSource,
    DEFAULT_SEED,
};
pub use trace::{arrival_trace, ArrivalEvent, ArrivalOrder, ArrivalTrace, TraceConfig};

use bsp_dag::Dag;
use bsp_model::BspParams;
use serde::{Deserialize, Serialize};

/// A named scheduling problem: a computational DAG paired with the
/// machine it is to be scheduled on.
///
/// Instances produced by the [`InstanceRegistry`] carry their resolved
/// canonical spec as `name`, so the name alone reproduces the instance
/// (same spec, same seed ⇒ bit-identical DAG and machine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Resolved spec (registry output) or any caller-chosen label.
    pub name: String,
    /// The computational DAG.
    pub dag: Dag,
    /// The target machine.
    pub machine: BspParams,
}

pub mod io {
    //! JSON and JSON-lines persistence for instances and sweep results.
    //!
    //! The helpers are generic over the workspace serde traits, so the
    //! same functions persist [`Instance`](crate::Instance)s and experiment
    //! `Eval` rows.

    use serde::{json, Deserialize, Error, Serialize};

    /// Serializes one value to indented JSON.
    pub fn to_json<T: Serialize>(value: &T) -> String {
        json::to_string_pretty(value)
    }

    /// Parses one value from JSON text.
    pub fn from_json<'de, T: Deserialize<'de>>(text: &str) -> Result<T, Error> {
        json::from_str(text)
    }

    /// Serializes a sequence as JSON-lines: one compact object per line —
    /// the append-friendly, diff-friendly sweep format.
    pub fn to_jsonl<T: Serialize>(items: &[T]) -> String {
        let mut out = String::new();
        for item in items {
            out.push_str(&json::to_string(item));
            out.push('\n');
        }
        out
    }

    /// Parses a JSON-lines stream, skipping blank lines.
    pub fn from_jsonl<'de, T: Deserialize<'de>>(text: &str) -> Result<Vec<T>, Error> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(json::from_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_json_round_trip_preserves_everything() {
        let registry = InstanceRegistry::standard();
        let inst = registry
            .generate_one("spmv?n=30&q=0.4 @ bsp?p=4&g=2&numa=tree&delta=2", 9)
            .unwrap();
        let text = io::to_json(&inst);
        let back: Instance = io::from_json(&text).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.machine.lambda(0, 3), 2);
    }

    #[test]
    fn jsonl_round_trips_batches() {
        let registry = InstanceRegistry::standard();
        let insts = registry.generate("dataset/training?scale=0.2", 3).unwrap();
        let text = io::to_jsonl(&insts);
        assert_eq!(text.lines().count(), insts.len());
        let back: Vec<Instance> = io::from_jsonl(&text).unwrap();
        assert_eq!(back, insts);
    }

    #[test]
    fn corrupt_json_is_an_error_not_a_panic() {
        assert!(io::from_json::<Instance>("{\"name\":\"x\"}").is_err());
        assert!(io::from_json::<Instance>("not json").is_err());
    }
}
