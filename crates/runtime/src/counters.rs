//! The per-processor counter block: every runtime counter, stored once.
//!
//! [`crate::run`] allocates one [`Counters`] block per simulated processor
//! on every run, with or without telemetry. The processor's
//! [`crate::ProcCtx`] is the block's only writer and bumps each counter
//! exactly once per event. When telemetry is attached, the registry's
//! per-processor shard holds an `Arc` to the same block, so live scrapes,
//! the final [`crate::TelemetrySnapshot`] and [`crate::RunReport::counters`]
//! all read the same memory.
//!
//! The counter list is declared once, in the `counters!` table below. It
//! generates the atomic block, the plain [`ProcTotals`] row with its
//! merge and JSON rendering, and the OpenMetrics family table.
//!
//! Counters are host-side bookkeeping: they never touch the virtual
//! clock, so simulated results are bit-identical however they are read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Single-writer counter increment: a relaxed load+store pair instead of
/// a locked read-modify-write. Every counter in a [`Counters`] block is
/// written only by its owning *processor* — an invariant about the
/// simulated processor, not about OS-thread identity. Under the threaded
/// executor the two coincide; under the pooled executor the processor
/// may migrate between worker threads, but only at suspension points,
/// and the scheduler's run-queue locks establish happens-before between
/// the worker that wrote last and the worker that resumes next — so
/// writes never race and the unlocked form stays exact. It is roughly 3×
/// cheaper than `fetch_add` on x86, which is what keeps telemetry-on
/// inside the <5% overhead budget.
#[inline]
pub(crate) fn bump(a: &AtomicU64, v: u64) {
    a.store(a.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
}

/// One OpenMetrics per-processor counter family: exposition position,
/// family name, help text, and the [`ProcTotals`] field it reads.
pub(crate) type Family = (usize, &'static str, &'static str, fn(&ProcTotals) -> u64);

/// Declares every counter once: `field => om_position, family, help;`.
/// Rows are in [`ProcTotals`] field order, which is also the JSON key
/// order; `om_position` is the family's place in the OpenMetrics
/// exposition.
macro_rules! counters {
    ($($field:ident => $pos:literal, $family:literal, $help:literal;)*) => {
        /// One processor's runtime counters as single-writer relaxed
        /// atomics (see [`bump`]). Cache-line aligned so neighbouring
        /// blocks never false-share.
        #[repr(align(64))]
        #[derive(Default)]
        pub(crate) struct Counters {
            $(#[doc = $help] pub $field: AtomicU64,)*
        }

        impl Counters {
            /// Plain copy of every counter (relaxed loads; exact once the
            /// owning processor has finished). `flight_recorded` is 0: the
            /// flight ring belongs to telemetry.
            pub(crate) fn totals(&self) -> ProcTotals {
                ProcTotals { $($field: self.$field.load(Ordering::Relaxed),)* flight_recorded: 0 }
            }
        }

        /// Counter values of one processor, or machine-wide totals via
        /// [`crate::RunReport::total`] / [`crate::TelemetrySnapshot::total`].
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct ProcTotals {
            $(#[doc = $help] pub $field: u64,)*
            /// Flight-recorder events recorded over the run (≥ retained).
            /// Filled in telemetry snapshots only; 0 in
            /// [`crate::RunReport::counters`].
            pub flight_recorded: u64,
        }

        impl ProcTotals {
            /// Accumulate another row into this one.
            pub fn merge(&mut self, other: &ProcTotals) {
                $(self.$field += other.$field;)*
                self.flight_recorded += other.flight_recorded;
            }

            /// One JSON object, keys in field order.
            pub(crate) fn to_json(&self) -> String {
                let mut out = String::from("{");
                $(out.push_str(&format!(concat!("\"", stringify!($field), "\":{},"), self.$field));)*
                out.push_str(&format!("\"flight_recorded\":{}}}", self.flight_recorded));
                out
            }
        }

        /// The per-processor OpenMetrics counter families, in table order.
        pub(crate) const FAMILIES: &[Family] = &[$(($pos, $family, $help, |t| t.$field),)*];
    };
}

counters! {
    sends => 0, "fx_sends", "Messages sent (both payload paths).";
    send_bytes => 1, "fx_send_bytes", "Payload bytes sent.";
    chunk_msgs => 6, "fx_chunk_msgs", "Messages sent via the chunk fast path.";
    chunk_bytes => 7, "fx_chunk_bytes", "Payload bytes sent via the chunk fast path.";
    send_ns => 4, "fx_send_ns", "Host nanoseconds inside send calls.";
    recvs => 2, "fx_recvs", "Messages received.";
    recv_bytes => 3, "fx_recv_bytes", "Payload bytes received.";
    recv_wait_ns => 5, "fx_recv_wait_ns", "Host nanoseconds blocked in receives.";
    barriers => 8, "fx_barriers", "Group barriers entered.";
    barriers_elided => 9, "fx_barriers_elided",
        "Statement sync points whose subset barrier was elided (interval-covered edge).";
    barriers_kept => 10, "fx_barriers_kept", "Statement sync points whose subset barrier ran.";
    promotions_attempted => 11, "fx_promotions_attempted",
        "Heartbeats that published a promotion announcement.";
    promotions_taken => 12, "fx_promotions_taken", "Loop-tail grants donated to idle subgroup peers.";
    promotions_declined => 13, "fx_promotions_declined",
        "Heartbeats that donated nothing (no victim or unprofitable).";
    region_enters => 14, "fx_region_enters", "Task-region scopes entered.";
    region_skips => 15, "fx_region_skips", "Task regions skipped (processor not a member).";
    pool_hits => 16, "fx_pool_hits", "Buffer-pool hits (buffer recycled).";
    pool_misses => 17, "fx_pool_misses", "Buffer-pool misses (allocator invoked).";
    plan_hits => 18, "fx_plan_hits", "Communication-plan cache hits.";
    plan_misses => 19, "fx_plan_misses", "Communication-plan cache misses.";
    pack_ns => 20, "fx_plan_pack_ns", "Host nanoseconds packing/unpacking plan buffers.";
    lane_contention => 21, "fx_lane_contention", "Mailbox lane deposits that found the lane lock held.";
    progress => 22, "fx_progress", "Monotone per-processor progress events.";
}
