//! The UniKV benchmark: three named workloads driven through the public
//! API by one closed-loop client, with every result checked against a
//! per-key version model. The untraced run reports end-to-end metrics;
//! the traced run times each layer from outside the engine (an env
//! wrapper, a maintenance-event listener, sampled profiled ops, and
//! counter deltas) and reports per-layer metrics. See `README.md`.

pub mod env;
pub mod listener;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
