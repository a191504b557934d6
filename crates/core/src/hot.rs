//! Pre-registered metric handles for the engine's hot paths.
//!
//! One `HotMetrics` is resolved against the cluster's registry at
//! construction and stored on [`crate::cluster::GlobalDb`]; every
//! per-transaction / per-batch / per-read record site indexes a `Vec`
//! slot through it instead of doing a string `BTreeMap` lookup. Each
//! subsystem owns its handle struct next to its metric names, so the
//! "names live with the subsystem" rule from DESIGN.md carries over to
//! handles. Registration alone never changes a metrics snapshot — slots
//! surface only once touched — so moving a record site onto a handle
//! leaves every snapshot byte-identical, which `scripts/vt_diff.sh`
//! compares.
//!
//! Not everything moves off the string path: snapshot-time mirrors
//! (`sync_derived_metrics`, `MessagePlane::mirror_metrics`) and labelled
//! per-region instruments format names once per snapshot, not per event,
//! and [`crate::net::MessagePlane::charge`] already accumulates into
//! per-`RpcKind` arrays on its hot path.

use gdb_obs::MetricsRegistry;

/// Every hot-path handle, grouped by owning subsystem.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotMetrics {
    pub txn: gdb_txnmgr::metrics::TxnHandles,
    pub ship: gdb_replication::metrics::ShipHandles,
    pub rcp: gdb_consistency::metrics::RcpHandles,
    pub router: gdb_router::metrics::RouterHandles,
}

impl HotMetrics {
    pub fn register(m: &mut MetricsRegistry) -> Self {
        HotMetrics {
            txn: gdb_txnmgr::metrics::TxnHandles::register(m),
            ship: gdb_replication::metrics::ShipHandles::register(m),
            rcp: gdb_consistency::metrics::RcpHandles::register(m),
            router: gdb_router::metrics::RouterHandles::register(m),
        }
    }
}
