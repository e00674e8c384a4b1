//! Pins what the workload generators make of a recipe, and the cache key
//! the hasher makes of a spec.
//!
//! The content hash names a scenario's synthetic flows by their recipe
//! (`scenario::hash`), so the cache is only sound while the same recipe
//! keeps producing the same flows. The first test is what notices when it
//! stops: one small spec per workload kind, each synthesized trace
//! digested flow by flow and compared to the value committed here. The
//! second pins the key itself, so a hasher rewrite that moves every key
//! (and silently invalidates every cache entry) or merges two keys fails
//! here instead of going unnoticed.

use std::path::Path;

use scenario::{compile, hash::hex, parse_scenario, StableHasher};

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

fn content_hash(text: &str, dir: &Path) -> String {
    hex(compile(parse_scenario(text).unwrap(), dir)
        .unwrap()
        .content_hash())
}

#[test]
fn content_hash_is_pinned_per_library_file_mode_engine_list_and_link_dir() {
    let library = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    let files: [(&str, &str); 10] = [
        ("ci_smoke", "9c2f231de91c72d6"),
        ("diurnal_ramp", "6f6c2c58e458ae18"),
        ("flapping_links", "e446865ffaca81ca"),
        ("gray_control_plane", "1b674ea4bd04c3df"),
        ("greedy_tor", "a93d08f749e2c1dd"),
        ("incast_storm", "369d5fabb00e894d"),
        ("partition_heal", "17d6e9dcf8a34195"),
        ("rolling_failures", "dbe2a19ac9b4d4d0"),
        ("steady_state", "9ddca882f0311be5"),
        ("trace_replay", "ee0c07720ef929d9"),
    ];
    let mut moved = Vec::new();
    for (name, pin) in files {
        let text = std::fs::read_to_string(library.join(format!("{name}.json"))).unwrap();
        let made = content_hash(&text, library);
        if made != pin {
            moved.push(format!("{name}: pinned {pin}, made {made}"));
        }
    }
    let small = |extra: &str| {
        format!(
            r#"{{"name": "pin", "topology": "parallel", "tors": 16, "ports": 4, "seed": 11,
                {extra}
                "phases": [{{"workload": "poisson", "load": 40, "epochs": [0, 10]}}]}}"#
        )
    };
    let specs: [(&str, &str); 12] = [
        (r#""mode": "base","#, "d577e35c4d3d28ac"),
        (r#""mode": "datasize","#, "459150aa03e6cabc"),
        (r#""mode": "hol_delay","#, "c857618c251981ed"),
        (r#""mode": "stateful","#, "947c13d4a612ecf1"),
        (r#""mode": "projector","#, "479ca01d7c875114"),
        (r#""mode": "iterative","#, "2b0fabb3f1b8a2f1"),
        (
            r#""mode": {"kind": "iterative", "rounds": 3},"#,
            "4d5ddafdedbdc0f8",
        ),
        (
            r#""mode": {"kind": "hol_delay", "alpha": 0.01},"#,
            "4b99675f355a5471",
        ),
        (r#""engines": ["oblivious"],"#, "f04d3f49f983244d"),
        (
            r#""engines": ["oblivious", "negotiator"],"#,
            "598e49c7fe3704d8",
        ),
        (
            r#""events": [{"at_epoch": 2, "action": "fail_links",
                           "links": [{"tor": 1, "port": 2, "dir": "egress"}]}],"#,
            "a795f2901b8616fd",
        ),
        (
            r#""events": [{"at_epoch": 2, "action": "fail_links",
                           "links": [{"tor": 1, "port": 2, "dir": "ingress"}]}],"#,
            "f527949f5f00e7a2",
        ),
    ];
    for (extra, pin) in specs {
        let made = content_hash(&small(extra), Path::new("."));
        if made != pin {
            moved.push(format!("{extra}: pinned {pin}, made {made}"));
        }
    }
    assert!(
        moved.is_empty(),
        "content_hash moved — every cached result keyed by the old value is orphaned; \
         if that is intended, bump `scenario-content-vN` in crates/scenario/src/hash.rs \
         and re-pin:\n{}",
        moved.join("\n")
    );
}
