//! Data-plane metric helpers shared by the step sources.
//!
//! Every [`crate::source::StepSource`] pull is counted through
//! [`record_steps`] so `dataplane.steps` / `dataplane.bytes` mean the same
//! thing regardless of which source served the layer. Decode timing is
//! recorded only where real decoding happens (`.tms` parsing, `.tmsb`
//! read+decode); the zero-copy in-memory and slice paths count steps and
//! bytes but skip the clock — two relaxed atomic adds is their entire
//! instrumentation cost, paid once per pass by the in-memory source.

/// Records one pulled step layer of `entries` f64 cells. Also feeds the
/// query-scoped profiler's byte throughput when a recorder is active
/// (inactive cost: one relaxed load).
#[inline]
pub(crate) fn record_step(entries: usize) {
    record_steps(1, entries);
}

/// [`record_step`] for `steps` layers at once.
#[inline]
pub(crate) fn record_steps(steps: usize, entries: usize) {
    let bytes = 8 * (steps * entries) as u64;
    transmark_obs::counter!("dataplane.steps").add(steps as u64);
    transmark_obs::counter!("dataplane.bytes").add(bytes);
    transmark_obs::profile::bytes(bytes);
}

/// Records one source rewind: a counter bump plus a timeline instant so
/// re-reads are visible in per-query traces.
#[inline]
pub(crate) fn record_rewind() {
    transmark_obs::counter!("dataplane.rewinds").inc();
    transmark_obs::profile::instant("dataplane.rewind");
}
