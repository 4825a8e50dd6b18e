#![warn(missing_docs)]

//! # fx-runtime — a simulated multicomputer
//!
//! Substrate for the Fx integrated task/data parallelism model (Subhlok &
//! Yang, PPoPP '97). The paper's results were measured on a 64-node Intel
//! Paragon; this crate stands in for that machine:
//!
//! * **SPMD execution** — `run(machine, f)` executes the same closure on
//!   `nprocs` host threads, one per simulated processor, each with its own
//!   [`ProcCtx`].
//! * **Direct-deposit messaging** — [`ProcCtx::send`] deposits a typed
//!   payload straight into the destination mailbox (the Fx communication
//!   style); [`ProcCtx::recv`] matches on `(source, tag)` FIFO channels.
//! * **Deterministic virtual time** — under [`TimeMode::Simulated`], each
//!   processor keeps its own clock, advanced only by explicit
//!   `charge_*` calls and by the LogGP-style costs of the messages it sends
//!   and receives ([`MachineModel`]). Clocks couple *only* through
//!   messages, so pipelined task parallelism overlaps in virtual time
//!   exactly as it would on real hardware, and results are bit-identical
//!   across runs and host machines.
//! * **Event tracing** — [`ProcCtx::record`] marks instants; [`RunReport`]
//!   computes stream throughput and latency from them, which is how every
//!   experiment in the paper is measured.
//!
//! Higher layers build the paper's model on top: `fx-core` adds processor
//! subgroups, task regions and group collectives; `fx-darray` adds
//! HPF-style distributed arrays.

mod coro;
mod counters;
mod critical;
mod ctx;
mod flight;
mod heartbeat;
#[cfg(feature = "telemetry-http")]
mod http;
mod mailbox;
mod model;
mod payload;
mod pool;
mod run;
mod span;
mod stall;
mod telemetry;
mod trace;

pub use counters::ProcTotals;
pub use critical::{critical_path, CriticalPathReport, PathKind, PathSegment, StageAttribution};
pub use ctx::ProcCtx;
pub use flight::{FlightEvent, FlightKind};
pub use heartbeat::{Grant, HeartbeatBoard, HeartbeatMode, PeerView};
#[cfg(feature = "telemetry-http")]
pub use http::TelemetryServer;
pub use model::{MachineModel, TimeMode};
pub use payload::{Chunk, Payload};
pub use run::{run, DataflowMode, Executor, Machine, RunReport};
pub use span::{
    request_trace_id, span_ref, span_ref_parts, Span, SpanAccounting, SpanKind, SpanLog, TraceCtx,
    WindowBreakdown,
};
pub use stall::{StallReport, StalledProc};
pub use telemetry::{
    ExemplarTrace, Histogram, HistogramSnapshot, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TenantStats, TenantTotals,
};
pub use trace::{
    chrome_trace_full_json, chrome_trace_json, chrome_trace_request_json, Event, EventLog,
};
