//! Bench artifact emission: a real TPC-C run serialises to the
//! gdb-bench/v1 schema with the per-phase latency breakdown and the
//! network totals populated.

use gdb_bench::{artifact, series_from_run, tpcc_run, BenchParams};
use gdb_workloads::driver::RunConfig;
use gdb_workloads::tpcc::{TpccMix, TpccScale};
use globaldb::{ClusterConfig, Json, SimDuration};

fn tiny_params() -> BenchParams {
    BenchParams {
        scale: TpccScale::tiny(),
        scale_name: "tiny",
        run: RunConfig {
            terminals: 4,
            duration: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(200),
            think_time: SimDuration::from_millis(10),
        },
        seed: 42,
    }
}

#[test]
fn artifact_round_trips_through_json() {
    let params = tiny_params();
    let (mut cluster, report) = tpcc_run(
        ClusterConfig::globaldb_three_city(),
        &params,
        TpccMix::standard(),
        |_| {},
    );
    let mut art = artifact("figtest", &params);
    art.series
        .push(series_from_run("globaldb", &mut cluster, &report));

    // What `--json` writes, read back as a JSON tree.
    let doc = Json::parse(&art.to_pretty()).expect("artifact is valid JSON");
    let s = &doc.get("series").and_then(Json::as_arr).expect("series")[0];
    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    assert!(num(s, "throughput_txn_s") > 0.0);
    assert!(num(s, "commits") > 0.0);
    let latency = s.get("latency_us").expect("latency_us");
    assert!(num(latency, "count") > 0.0 && num(latency, "p99_us") >= num(latency, "p50_us"));
    // The per-phase breakdown fig6a plots must be present and populated.
    let phases = s.get("phases_us").expect("phases_us");
    for phase in ["snapshot_acquire", "execute", "prepare", "commit_wait"] {
        let h = phases
            .get(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(num(h, "count") > 0.0, "empty phase {phase}");
    }
    // The ack phase is recorded, and real log-ship traffic shows up in
    // net stats.
    assert!(phases.get("replication_ack").is_some());
    let net = s.get("net").expect("net");
    assert!(num(net, "batches") > 0.0 && num(net, "wire_bytes") > 0.0);
}
