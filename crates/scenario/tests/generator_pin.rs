//! Pins what the workload generators make of a recipe.
//!
//! The content hash names a scenario's synthetic flows by their recipe
//! (`scenario::hash`), so the cache is only sound while the same recipe
//! keeps producing the same flows. This test is what notices when it stops:
//! one small spec per workload kind, each synthesized trace digested flow
//! by flow and compared to the value committed here.

use std::path::Path;

use scenario::{compile, parse_scenario, StableHasher};

fn trace_digest(phases: &str) -> (usize, u64) {
    let text = format!(
        r#"{{"name": "pin", "topology": "parallel", "tors": 16, "ports": 4, "seed": 11,
            "phases": [{phases}]}}"#
    );
    let c = compile(parse_scenario(&text).unwrap(), Path::new(".")).unwrap();
    let mut h = StableHasher::new();
    for f in c.trace.flows() {
        h.write_u64(f.id)
            .write_u64(f.src as u64)
            .write_u64(f.dst as u64)
            .write_u64(f.bytes)
            .write_u64(f.arrival);
    }
    (c.trace.len(), h.finish())
}

#[test]
fn generator_output_is_pinned_per_workload_kind() {
    let pins: [(&str, &str, usize, u64); 7] = [
        (
            "poisson/hadoop",
            r#"{"workload": "poisson", "dist": "hadoop", "load": 40, "epochs": [0, 10]}"#,
            64,
            0x7C09_F172_6978_54CE,
        ),
        (
            "poisson/web_search",
            r#"{"workload": "poisson", "dist": "web_search", "load": 40, "epochs": [0, 10]}"#,
            14,
            0x71C2_F963_CBB7_4959,
        ),
        (
            "poisson/google",
            r#"{"workload": "poisson", "dist": "google", "load": 40, "epochs": [0, 10]}"#,
            312,
            0x3EA9_A9E1_45BA_EBA9,
        ),
        (
            "incast/once",
            r#"{"workload": "incast", "degree": 6, "flow_bytes": 1000, "epochs": [0, 10]}"#,
            6,
            0xF541_7A4A_12B1_FAA5,
        ),
        (
            "incast/every_epochs",
            r#"{"workload": "incast", "degree": 6, "flow_bytes": 1000, "every_epochs": 3,
                "epochs": [0, 10]}"#,
            24,
            0x3529_2246_F198_663E,
        ),
        (
            "all_to_all",
            r#"{"workload": "all_to_all", "flow_bytes": 2000, "epochs": [0, 10]}"#,
            240,
            0x1D41_E756_6D5F_BC65,
        ),
        (
            "two-phase mix",
            r#"{"workload": "poisson", "load": 30, "epochs": [0, 6]},
               {"workload": "incast", "degree": 4, "flow_bytes": 500, "every_epochs": 2,
                "epochs": [6, 12]}"#,
            38,
            0xE15C_3747_56C4_E0FC,
        ),
    ];
    for (kind, phases, flows, digest) in pins {
        let made = trace_digest(phases);
        assert_eq!(
            made,
            (flows, digest),
            "{kind}: generator output moved: bump `scenario-content-vN` in \
             crates/scenario/src/hash.rs (cached results keyed by the old recipe \
             no longer match what it makes), then re-pin — made {} flows, digest {:#018x}",
            made.0,
            made.1
        );
    }
}
