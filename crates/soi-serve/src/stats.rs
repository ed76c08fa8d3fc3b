//! Server-side accounting: lock-free global counters plus a per-tenant
//! map, snapshotted on demand into the wire [`StatsSnapshot`].
//!
//! `soi-trace` counters want `&'static str` names (they are designed for
//! a fixed vocabulary of pipeline stages), so per-tenant accounting —
//! whose key space is open — lives here instead, in a `BTreeMap` so
//! snapshots enumerate tenants in a deterministic order.

use crate::proto::{StatsSnapshot, TenantStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct TenantCounters {
    requests: u64,
    ok: u64,
    shed: u64,
    expired: u64,
    rejected: u64,
    bytes_in: u64,
    bytes_out: u64,
    compute_ns: u64,
}

/// Shared accounting for one server instance. All methods are callable
/// from any reader/executor thread.
#[derive(Debug, Default)]
pub struct Registry {
    connections: AtomicU64,
    active_connections: AtomicU64,
    idle_closed: AtomicU64,
    peer_lost: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    engine_builds: AtomicU64,
    engine_evictions: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
}

impl Registry {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_tenant(&self, tenant: &str, f: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenants.lock().expect("stats registry poisoned");
        f(map.entry(tenant.to_string()).or_default());
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.active_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection's reader loop exited, for whichever reason.
    pub fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// The idle deadline closed a connection.
    pub fn idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A client vanished without a BYE.
    pub fn peer_lost(&self) {
        self.peer_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// A request arrived (counted before admission).
    pub fn record_request(&self, tenant: &str, bytes_in: u64) {
        self.with_tenant(tenant, |t| {
            t.requests += 1;
            t.bytes_in += bytes_in;
        });
    }

    /// A request was answered with a RESPONSE.
    pub fn record_ok(&self, tenant: &str, bytes_out: u64, compute_ns: u64) {
        self.with_tenant(tenant, |t| {
            t.ok += 1;
            t.bytes_out += bytes_out;
            t.compute_ns += compute_ns;
        });
    }

    /// Admission control shed a request.
    pub fn record_shed(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.shed += 1);
    }

    /// A queued request's deadline expired before compute.
    pub fn record_expired(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.expired += 1);
    }

    /// A request was rejected as invalid.
    pub fn record_bad(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.rejected += 1);
    }

    /// A batch of `size` requests was executed together.
    pub fn record_batch(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size, Ordering::Relaxed);
        self.max_batch.fetch_max(size, Ordering::Relaxed);
    }

    /// An engine (pipeline + workspace arena) was built.
    pub fn record_engine_build(&self) {
        self.engine_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// An engine was evicted from the executor cache.
    pub fn record_engine_eviction(&self) {
        self.engine_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot. `queue_depth` is sampled by the caller
    /// (the queue belongs to the scheduler, not the registry); the
    /// plan-cache numbers come from the process-global
    /// [`soi_fft::Planner`].
    pub fn snapshot(&self, queue_depth: u64) -> StatsSnapshot {
        let plan = soi_fft::Planner::global().plan_cache_stats();
        let tenants = self
            .tenants
            .lock()
            .expect("stats registry poisoned")
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                requests: t.requests,
                ok: t.ok,
                shed: t.shed,
                expired: t.expired,
                rejected: t.rejected,
                bytes_in: t.bytes_in,
                bytes_out: t.bytes_out,
                compute_ns: t.compute_ns,
            })
            .collect();
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            peer_lost: self.peer_lost.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_depth,
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            plan_evictions: plan.evictions,
            engine_builds: self.engine_builds.load(Ordering::Relaxed),
            engine_evictions: self.engine_evictions.load(Ordering::Relaxed),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events_in_tenant_order() {
        let r = Registry::new();
        r.connection_opened();
        r.connection_opened();
        r.connection_closed();
        r.idle_closed();
        r.record_request("zeta", 100);
        r.record_request("alpha", 50);
        r.record_ok("alpha", 800, 1234);
        r.record_shed("zeta");
        r.record_batch(4);
        r.record_batch(7);
        let s = r.snapshot(3);
        assert_eq!(s.connections, 2);
        assert_eq!(s.active_connections, 1);
        assert_eq!(s.idle_closed, 1);
        assert_eq!(s.queue_depth, 3);
        assert_eq!((s.batches, s.batched_requests, s.max_batch), (2, 11, 7));
        // BTreeMap => deterministic order.
        let names: Vec<&str> = s.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(s.tenants[0].ok, 1);
        assert_eq!(s.tenants[0].compute_ns, 1234);
        assert_eq!(s.tenants[1].shed, 1);
    }
}
