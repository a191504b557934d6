//! Acceptance tests for the typed RPC message plane.
//!
//! The refactor's contract is that *every* wire charge in the core crate
//! flows through `MessagePlane`, so per-`RpcKind` counters are complete
//! and the cost model has a single chokepoint. Two things enforce that
//! here: a source-level scan that no direct `Topology` charging call
//! survives outside `net.rs`, and a live-cluster check that every
//! `RpcKind` shows up in `metrics_snapshot()` with a per-region label.

use globaldb::{Cluster, ClusterConfig, Datum, SimTime, ALL_RPC_KINDS};
use std::path::{Path, PathBuf};

fn core_src() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src")
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read core src") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// No direct `topo.one_way` / `topo.rtt` / `topo.ship_rtt` /
/// `topo.charge_bytes` call sites outside the message plane. Everything
/// must go through `MessagePlane` so the per-kind accounting is complete.
#[test]
fn no_direct_topology_charges_outside_the_plane() {
    let banned = [
        "topo.one_way(",
        "topo.rtt(",
        "topo.ship_rtt(",
        "topo.charge_bytes(",
    ];
    let mut files = Vec::new();
    rust_sources(&core_src(), &mut files);
    assert!(files.len() > 10, "unexpectedly few core sources");
    let mut offenders = Vec::new();
    for path in &files {
        if path.file_name().is_some_and(|n| n == "net.rs") {
            continue; // the plane itself wraps the Topology primitives
        }
        let text = std::fs::read_to_string(path).expect("read source");
        // Whitespace-stripped so `topo\n  .one_way(` can't slip through.
        let squeezed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for pat in banned {
            if squeezed.contains(pat) {
                offenders.push(format!("{}: {pat}", path.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "direct topology charge sites outside MessagePlane:\n{}",
        offenders.join("\n")
    );
}

/// Transport-generic crates stay transport-generic: no wall-clock or
/// socket primitive may appear outside the crates whose *job* is real
/// time — `simclock` (hosts the `WallClock` time source), `realnet`
/// (the real transports), and `bench` (wall-clock measurement
/// binaries). A `thread::sleep` or `Instant::now` in core, txnmgr, or
/// replication would silently couple transaction logic to the machine
/// clock and break both sim determinism and the sim/real split.
#[test]
fn no_wall_clock_or_sockets_in_transport_generic_crates() {
    let banned = [
        "Instant::now(",
        "SystemTime",
        "thread::sleep(",
        "TcpStream",
        "TcpListener",
        "UdpSocket",
        "WallClock",
    ];
    let exempt = ["simclock", "realnet", "bench"];
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut offenders = Vec::new();
    let mut scanned = 0usize;
    for entry in std::fs::read_dir(&crates_dir).expect("read crates dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !path.is_dir() || exempt.contains(&name.as_str()) {
            continue;
        }
        let src = path.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        for file in files {
            scanned += 1;
            let text = std::fs::read_to_string(&file).expect("read source");
            let squeezed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
            for pat in banned {
                let pat_squeezed: String = pat.chars().filter(|c| !c.is_whitespace()).collect();
                if squeezed.contains(pat_squeezed.as_str()) {
                    offenders.push(format!("{}: {pat}", file.display()));
                }
            }
        }
    }
    assert!(scanned > 40, "unexpectedly few sources scanned ({scanned})");
    assert!(
        offenders.is_empty(),
        "wall-clock/socket primitives in transport-generic crates:\n{}",
        offenders.join("\n")
    );
}

/// Every `RpcKind` has a live counter in `metrics_snapshot()` — both the
/// total (`rpc.<kind>.msgs`) and at least one per-region-pair labelled
/// variant (`rpc.<kind>.msgs.<from>-<to>`) — even for kinds this
/// particular run never exercised (they pre-register at zero).
#[test]
fn every_rpc_kind_has_a_live_region_labelled_counter() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..16i64)
            .map(|k| gdb_model::Row(vec![Datum::Int(k), Datum::Int(k * 10)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(SimTime::from_millis(1500));
    for k in 0..8i64 {
        c.execute_sql(
            0,
            SimTime::from_millis(1500 + k as u64 * 10),
            "UPDATE kv SET v = ? WHERE k = ?",
            &[Datum::Int(k * 100), Datum::Int(k)],
        )
        .unwrap();
    }
    // A full-table update crosses shards, forcing a real 2PC prepare round.
    c.execute_sql(0, SimTime::from_millis(1650), "UPDATE kv SET v = 0", &[])
        .unwrap();
    let (_, _) = c
        .execute_sql(
            1,
            SimTime::from_millis(1700),
            "SELECT v FROM kv WHERE k = ?",
            &[Datum::Int(3)],
        )
        .unwrap();
    let snap = c.metrics_snapshot();
    for kind in ALL_RPC_KINDS {
        let total = format!("rpc.{}.msgs", kind.name());
        assert!(
            snap.counter(&total).is_some(),
            "no live counter for {total}"
        );
        let prefix = format!("rpc.{}.msgs.", kind.name());
        let labelled = snap.metrics.keys().any(|n| n.starts_with(prefix.as_str()));
        assert!(
            labelled,
            "no region-labelled counter rpc.{}.msgs.<from>-<to>",
            kind.name()
        );
    }
    // And the plumbing is not write-only: the kinds this workload surely
    // exercised carry non-zero traffic.
    for name in [
        "rpc.dn_read.msgs",
        "rpc.dn_write.msgs",
        "rpc.two_pc_prepare.msgs",
    ] {
        assert!(
            snap.counter(name).unwrap_or(0) > 0,
            "{name} stayed zero over a read/write workload"
        );
    }
    // The migration kinds pre-register at zero on an idle cluster (no
    // migration was scheduled here).
    for name in [
        "rpc.migrate_snapshot.msgs",
        "rpc.migrate_catchup.msgs",
        "rpc.migrate_cutover.msgs",
    ] {
        assert_eq!(
            snap.counter(name),
            Some(0),
            "{name} must pre-register at zero without a migration"
        );
    }
}

/// An online shard migration exercises all three migration `RpcKind`s:
/// the snapshot copy, at least one catch-up batch, and the cutover
/// barrier + announce fan-out.
#[test]
fn migration_rpc_kinds_carry_traffic_during_a_migration() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..32i64)
            .map(|k| gdb_model::Row(vec![Datum::Int(k), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(SimTime::from_millis(300));

    let schema = c.db.catalog().table(table).unwrap().clone();
    let key = (0..32i64)
        .find(|&k| {
            schema
                .shard_of_pk(&gdb_model::RowKey::single(k), c.db.shards().len() as u16)
                .0
                == 0
        })
        .expect("a key on shard 0");
    let source_host = c.db.topo().node_host(c.db.shards()[0].primary);
    c.start_migration(0, c.db.regions()[0], (source_host + 1) % 3)
        .unwrap();
    // Write into the shard while the migration catches up so at least
    // one catch-up batch ships.
    for i in 0..4u64 {
        c.execute_sql(
            0,
            SimTime::from_millis(301 + i),
            "UPDATE kv SET v = ? WHERE k = ?",
            &[Datum::Int(i as i64), Datum::Int(key)],
        )
        .unwrap();
    }
    c.run_until(SimTime::from_secs(3));
    assert_eq!(c.db.last_migration_completed(), Some(0));

    let snap = c.metrics_snapshot();
    for name in [
        "rpc.migrate_snapshot.msgs",
        "rpc.migrate_catchup.msgs",
        "rpc.migrate_cutover.msgs",
    ] {
        assert!(
            snap.counter(name).unwrap_or(0) > 0,
            "{name} stayed zero across a completed migration"
        );
    }
}
