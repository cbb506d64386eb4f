//! The `Value`-tree wire codec that `protocol::{parse_line, to_line}` used
//! before the direct codec, kept as an executable specification.
//!
//! The impls below are the old `Serialize`/`Deserialize` impls of
//! `Request` and `Frame` and their helpers, unchanged except that they
//! sit on the local wrapper [`Ref`] (a test crate may not implement a
//! foreign trait for a foreign type). [`to_line`] and [`parse_line`] are
//! the old entry points: `serde::json` over the whole line. The
//! equivalence tests hold the direct codec to them byte for byte and
//! verdict for verdict.

#![allow(dead_code)]

use bsp_serve::{Frame, Request};
use serde::{json, Deserialize, Error as SerdeError, Serialize, Value};

/// A message under the reference codec.
#[derive(Debug, Clone, PartialEq)]
pub struct Ref<T>(pub T);

/// The reference line of `msg`.
pub fn to_line<T: Clone>(msg: &T) -> String
where
    Ref<T>: Serialize,
{
    json::to_string(&Ref(msg.clone()))
}

/// The reference reading of `line`.
pub fn parse_line<T>(line: &str) -> Result<T, SerdeError>
where
    Ref<T>: for<'de> Deserialize<'de>,
{
    json::from_str::<Ref<T>>(line.trim()).map(|r| r.0)
}

impl Serialize for Ref<Request> {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("method".to_string(), Value::Str(self.0.method.clone()))];
        push_opt(&mut fields, "id", &self.0.id);
        push_opt(&mut fields, "instance", &self.0.instance);
        push_opt(&mut fields, "sched", &self.0.sched);
        push_opt(&mut fields, "budget_ms", &self.0.budget_ms);
        push_opt(&mut fields, "seed", &self.0.seed);
        push_opt(&mut fields, "stream", &self.0.stream);
        push_opt(&mut fields, "base", &self.0.base);
        push_opt(&mut fields, "edits", &self.0.edits);
        push_opt(&mut fields, "label", &self.0.label);
        push_opt(&mut fields, "session", &self.0.session);
        push_opt(&mut fields, "events", &self.0.events);
        push_opt(&mut fields, "rkey", &self.0.rkey);
        push_opt(&mut fields, "deadline_ms", &self.0.deadline_ms);
        Value::Object(fields)
    }
}

impl<'de> Deserialize<'de> for Ref<Request> {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if !matches!(value, Value::Object(_)) {
            return Err(SerdeError::new("request: expected a JSON object"));
        }
        Ok(Ref(Request {
            method: req_field(value, "method")?,
            id: opt_field(value, "id")?,
            instance: opt_field(value, "instance")?,
            sched: opt_field(value, "sched")?,
            budget_ms: opt_field(value, "budget_ms")?,
            seed: opt_field(value, "seed")?,
            stream: opt_field(value, "stream")?,
            base: opt_field(value, "base")?,
            edits: opt_field(value, "edits")?,
            label: opt_field(value, "label")?,
            session: opt_field(value, "session")?,
            events: opt_field(value, "events")?,
            rkey: opt_field(value, "rkey")?,
            deadline_ms: opt_field(value, "deadline_ms")?,
        }))
    }
}

impl Serialize for Ref<Frame> {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("kind".to_string(), Value::Str(self.0.kind.clone()))];
        push_opt(&mut fields, "id", &self.0.id);
        push_opt(&mut fields, "instance", &self.0.instance);
        push_opt(&mut fields, "sched", &self.0.sched);
        push_opt(&mut fields, "cost", &self.0.cost);
        push_opt(&mut fields, "supersteps", &self.0.supersteps);
        push_opt(&mut fields, "cache_hit", &self.0.cache_hit);
        push_opt(&mut fields, "warm", &self.0.warm);
        push_opt(&mut fields, "warm_init_cost", &self.0.warm_init_cost);
        push_opt(&mut fields, "elapsed_us", &self.0.elapsed_us);
        push_opt(&mut fields, "budget_exhausted", &self.0.budget_exhausted);
        push_opt(&mut fields, "stages", &self.0.stages);
        push_opt(&mut fields, "error", &self.0.error);
        push_opt(&mut fields, "message", &self.0.message);
        push_opt(&mut fields, "retry_after_ms", &self.0.retry_after_ms);
        push_opt(&mut fields, "event", &self.0.event);
        push_opt(&mut fields, "stats", &self.0.stats);
        push_opt(&mut fields, "metrics", &self.0.metrics);
        push_opt(&mut fields, "session", &self.0.session);
        push_opt(&mut fields, "frontier", &self.0.frontier);
        push_opt(&mut fields, "arrivals", &self.0.arrivals);
        push_opt(&mut fields, "suffix_nodes", &self.0.suffix_nodes);
        push_opt(&mut fields, "suffix_procs", &self.0.suffix_procs);
        push_opt(&mut fields, "suffix_steps", &self.0.suffix_steps);
        Value::Object(fields)
    }
}

impl<'de> Deserialize<'de> for Ref<Frame> {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if !matches!(value, Value::Object(_)) {
            return Err(SerdeError::new("frame: expected a JSON object"));
        }
        Ok(Ref(Frame {
            kind: req_field(value, "kind")?,
            id: opt_field(value, "id")?,
            instance: opt_field(value, "instance")?,
            sched: opt_field(value, "sched")?,
            cost: opt_field(value, "cost")?,
            supersteps: opt_field(value, "supersteps")?,
            cache_hit: opt_field(value, "cache_hit")?,
            warm: opt_field(value, "warm")?,
            warm_init_cost: opt_field(value, "warm_init_cost")?,
            elapsed_us: opt_field(value, "elapsed_us")?,
            budget_exhausted: opt_field(value, "budget_exhausted")?,
            stages: opt_field(value, "stages")?,
            error: opt_field(value, "error")?,
            message: opt_field(value, "message")?,
            retry_after_ms: opt_field(value, "retry_after_ms")?,
            event: opt_field(value, "event")?,
            stats: opt_field(value, "stats")?,
            metrics: opt_field(value, "metrics")?,
            session: opt_field(value, "session")?,
            frontier: opt_field(value, "frontier")?,
            arrivals: opt_field(value, "arrivals")?,
            suffix_nodes: opt_field(value, "suffix_nodes")?,
            suffix_procs: opt_field(value, "suffix_procs")?,
            suffix_steps: opt_field(value, "suffix_steps")?,
        }))
    }
}

fn push_opt<T: Serialize>(fields: &mut Vec<(String, Value)>, key: &str, v: &Option<T>) {
    if let Some(v) = v {
        fields.push((key.to_string(), v.to_value()));
    }
}

fn req_field<'de, T: Deserialize<'de>>(value: &Value, key: &str) -> Result<T, SerdeError> {
    match value.get(key) {
        Some(v) => T::from_value(v).map_err(|e| SerdeError::new(format!("field {key:?}: {e}"))),
        None => Err(SerdeError::new(format!("missing field {key:?}"))),
    }
}

fn opt_field<'de, T: Deserialize<'de>>(value: &Value, key: &str) -> Result<Option<T>, SerdeError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => {
            Option::<T>::from_value(v).map_err(|e| SerdeError::new(format!("field {key:?}: {e}")))
        }
    }
}
