//! Seam discipline: real transports must never call the simulation's
//! RNG-drawing delivery primitives.
//!
//! `Topology::one_way` (and the helpers built on it) draws jitter from
//! the topology's seeded RNG. If a real transport ever called it — even
//! once, even on an error path — installing that transport would
//! perturb the RNG stream and silently break the committed-trace
//! guarantee for every sim run sharing the process. Real transports may
//! only use the RNG-free fault/accounting surface: `deliverable`,
//! `injected_delay`, `record_delivery`.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn realnet_never_calls_rng_drawing_delivery_primitives() {
    let banned = [
        "topo.one_way(",
        "topo.rtt(",
        "topo.ship_rtt(",
        "topo.charge_bytes(",
        ".nominal_rtt(",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    assert!(files.len() >= 7, "unexpectedly few realnet sources");
    let mut offenders = Vec::new();
    for path in &files {
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
        "sim-only delivery primitives called from realnet:\n{}",
        offenders.join("\n")
    );
}
