//! Stable content addressing for compiled scenarios.
//!
//! The serving daemon and the batch CLI cache scenario results by
//! content: two submissions that would produce byte-identical output must
//! map to the same key, and any input that can change a single output
//! byte must change it. Hashing the scenario *file* is not enough —
//! formatting, key order and comments-by-another-name (defaulted fields)
//! all change the bytes without changing the run — so the key is computed
//! over the **canonical recipe** of the compiled scenario: every spec
//! field that reaches the rendered report (name, description, labels,
//! engines, mode, fabric), the seed, each phase's span and workload
//! parameters, the epoch length and boundaries, and the fault timeline.
//! The mode, engine, workload and link-direction tags are the names
//! `spec`'s vocabulary tables give them, spelled as a scenario file does.
//!
//! The synthesized flows are *not* hashed: a poisson / incast /
//! all-to-all phase is a pure function of parameters the key already
//! holds (workload parameters, seed lane = seed + phase position, fabric,
//! epoch length), so walking the merged trace would spend 32 bytes per
//! flow restating them — and would force the trace that
//! [`crate::compile()`] leaves unsynthesized until a run needs it. The one
//! input a spec does not determine is a replayed trace file; those flows
//! (as `compile` checked, filtered and offset them) are hashed one by one.
//! What keeps "same recipe ⇒ same flows" true across code changes is the
//! version tag: see the rule at `CONTENT_VERSION`.
//!
//! The hash is a fixed FNV-1a/64 over a canonical byte encoding — not
//! `std::hash::Hasher`, whose output is explicitly unstable across
//! releases and platforms, which would silently invalidate (or worse,
//! mis-share) an on-disk cache.

use crate::compile::CompiledScenario;
use crate::spec::{
    mode_name, name_of, EngineKind, PhaseSpec, ScenarioSpec, WorkloadPhase, DIRS, ENGINES,
};
use negotiator::SchedulerMode;
use topology::failures::LinkDir;
use topology::{FaultAction, FlapTargets, NetworkConfig, PartitionSpec};

/// Incremental FNV-1a (64-bit) over a canonical encoding. Deliberately
/// boring: stability across builds and platforms is the whole point.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Feed a length-prefixed string (prefixing prevents `"ab","c"` from
    /// colliding with `"a","bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// Feed a u64 as fixed-width little-endian bytes.
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        self.write(&x.to_le_bytes())
    }

    /// Feed an f64 via its exact bit pattern.
    pub fn write_f64(&mut self, x: f64) -> &mut Self {
        self.write_u64(x.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Render a digest the way cache files and wire messages carry it:
/// 16 lowercase hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Version tag of the content-hash encoding, so a change invalidates old
/// cache entries instead of colliding with them. **Bump it whenever a
/// workload generator's output moves** (`workload::{poisson, incast,
/// alltoall, dist}`, the seed-lane derivation or the merge in
/// `compile`): the key names flows by their recipe, so a generator that
/// makes different flows from the same recipe must not reuse the old
/// names — `tests/generator_pin.rs` fails when that happens. v2: the
/// injection timeline joined the encoding and the series gained fault
/// columns. v3: synthesized flows left the encoding (they were the only
/// thing that noticed a changed generator by itself — hence the rule).
/// v4: link actions and injections are one timeline, encoded as one list.
const CONTENT_VERSION: &str = "scenario-content-v4";

impl CompiledScenario {
    /// Content hash of everything that determines this scenario's output
    /// bytes. Equal hashes ⇒ byte-identical reports (modulo timing
    /// metadata, which is never cached or compared). Computed from the
    /// recipe on first call — no generator runs — and remembered.
    pub fn content_hash(&self) -> u64 {
        *self.digest.get_or_init(|| self.compute_hash())
    }

    fn compute_hash(&self) -> u64 {
        // Destructured without `..`: a field added to the spec, the fabric
        // or a phase is a compile error here until the hasher decides how
        // it keys the cache, never a stale cache hit.
        let ScenarioSpec {
            name,
            description,
            topology,
            net,
            mode,
            seed,
            engines,
            phases,
            // Events and phase faults reach the key as `self.timeline`.
            events: _,
        } = &self.spec;
        let NetworkConfig {
            n_tors,
            n_ports,
            port_bandwidth,
            host_bandwidth,
            propagation_delay,
        } = net;
        let mut h = StableHasher::new();
        h.write_str(CONTENT_VERSION);
        h.write_str(name).write_str(description);
        h.write_str(topology.label());
        h.write_u64(*n_tors as u64)
            .write_u64(*n_ports as u64)
            .write_u64(port_bandwidth.bps())
            .write_u64(host_bandwidth.bps())
            .write_u64(*propagation_delay);
        hash_mode(&mut h, *mode);
        h.write_u64(*seed);
        h.write_u64(engines.len() as u64);
        for &engine in engines {
            h.write_str(name_of(&ENGINES, engine));
        }
        // Labels and spans reach the rendered per-phase table; span,
        // workload parameters and position (the seed lane) are, with the
        // seed, fabric and epoch length, what the phase's flows are a
        // function of.
        h.write_u64(phases.len() as u64);
        for (i, phase) in phases.iter().enumerate() {
            let PhaseSpec {
                label,
                start_epoch,
                end_epoch,
                workload,
                faults: _,
            } = phase;
            h.write_str(label)
                .write_u64(*start_epoch)
                .write_u64(*end_epoch);
            hash_workload(&mut h, workload);
            if let Some(flows) = self.trace.replayed(i) {
                h.write_u64(flows.len() as u64);
                for flow in flows {
                    h.write_u64(flow.src as u64)
                        .write_u64(flow.dst as u64)
                        .write_u64(flow.bytes)
                        .write_u64(flow.arrival);
                }
            }
        }
        h.write_u64(self.epoch_len).write_u64(self.duration);
        h.write_u64(self.boundaries.len() as u64);
        for &b in &self.boundaries {
            h.write_u64(b);
        }
        h.write_u64(self.timeline.len() as u64);
        for (at, action) in &self.timeline {
            h.write_u64(*at);
            hash_fault(&mut h, action);
        }
        h.finish()
    }

    /// Content hash of one engine's run within this scenario — the unit
    /// the batch runner dedupes on before dispatch.
    pub fn run_hash(&self, engine: EngineKind) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("scenario-run-v1")
            .write_u64(self.content_hash())
            .write_str(name_of(&ENGINES, engine));
        h.finish()
    }
}

fn hash_mode(h: &mut StableHasher, mode: SchedulerMode) {
    h.write_str(mode_name(mode));
    match mode {
        SchedulerMode::Iterative { rounds } => h.write_u64(rounds as u64),
        SchedulerMode::HolDelay { alpha } => h.write_f64(alpha),
        SchedulerMode::Base
        | SchedulerMode::DataSize
        | SchedulerMode::Stateful
        | SchedulerMode::Projector => h,
    };
}

fn hash_workload(h: &mut StableHasher, workload: &WorkloadPhase) {
    h.write_str(workload.kind());
    match workload {
        WorkloadPhase::Poisson { dist, load } => h.write_str(dist.name()).write_f64(*load),
        WorkloadPhase::Incast {
            degree,
            flow_bytes,
            every_epochs,
        } => h
            .write_u64(*degree as u64)
            .write_u64(*flow_bytes)
            .write_u64(every_epochs.unwrap_or(u64::MAX)),
        WorkloadPhase::AllToAll { flow_bytes } => h.write_u64(*flow_bytes),
        WorkloadPhase::Trace { path } => h.write_str(path),
    };
}

fn hash_link(h: &mut StableHasher, (tor, port, dir): (usize, usize, LinkDir)) -> &mut StableHasher {
    h.write_u64(tor as u64)
        .write_u64(port as u64)
        .write_str(name_of(&DIRS, dir))
}

fn hash_fault(h: &mut StableHasher, action: &FaultAction) {
    match action {
        FaultAction::FailLink { tor, port, dir } => {
            hash_link(h.write_str("fail_link"), (*tor, *port, *dir))
        }
        FaultAction::FailRandom { ratio, seed } => h
            .write_str("fail_random")
            .write_f64(*ratio)
            .write_u64(*seed),
        FaultAction::RepairAll => h.write_str("repair_all"),
        FaultAction::FlapStart { targets, up, down } => {
            h.write_str("flap_start");
            match targets {
                FlapTargets::Links(links) => {
                    h.write_str("links").write_u64(links.len() as u64);
                    for &link in links {
                        hash_link(h, link);
                    }
                }
                FlapTargets::Random { ratio, seed } => {
                    h.write_str("random").write_f64(*ratio).write_u64(*seed);
                }
            }
            h.write_u64(*up).write_u64(*down)
        }
        FaultAction::FlapStop => h.write_str("flap_stop"),
        FaultAction::Partition(PartitionSpec::Explicit(groups)) => {
            h.write_str("partition").write_str("explicit");
            h.write_u64(groups.len() as u64);
            for &g in groups {
                h.write_u64(g as u64);
            }
            h
        }
        FaultAction::Partition(PartitionSpec::Random { groups, seed }) => h
            .write_str("partition")
            .write_str("random")
            .write_u64(*groups as u64)
            .write_u64(*seed),
        FaultAction::Heal => h.write_str("heal"),
        FaultAction::GrayStart {
            drop_prob,
            seed,
            tors,
        } => {
            // Every ToR (no list) hashes as an impossible list length.
            h.write_str("gray_start")
                .write_f64(*drop_prob)
                .write_u64(*seed);
            h.write_u64(tors.as_ref().map_or(u64::MAX, |t| t.len() as u64));
            for &t in tors.iter().flatten() {
                h.write_u64(t as u64);
            }
            h
        }
        FaultAction::GrayStop => h.write_str("gray_stop"),
        FaultAction::GreedyStart { tors } => {
            h.write_str("greedy_start").write_u64(tors.len() as u64);
            for &t in tors {
                h.write_u64(t as u64);
            }
            h
        }
        FaultAction::GreedyStop => h.write_str("greedy_stop"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::parse_scenario;
    use std::path::Path;

    fn compiled(text: &str) -> CompiledScenario {
        compile(parse_scenario(text).unwrap(), Path::new(".")).unwrap()
    }

    fn base(name: &str, seed: u64, load: u64) -> String {
        format!(
            r#"{{
  "name": "{name}", "topology": "parallel", "tors": 16, "ports": 4,
  "seed": {seed},
  "phases": [{{"workload": "poisson", "load": {load}, "epochs": [0, 20]}}]
}}"#
        )
    }

    /// The anchor scenario (`base("anchor", 3, 50)`) with an event list.
    fn with_events(events: &str) -> String {
        base("anchor", 3, 50).replace(
            "\"seed\": 3,",
            &format!("\"seed\": 3, \"events\": [{events}],"),
        )
    }

    #[test]
    fn identical_specs_hash_identically() {
        let a = compiled(&base("same", 3, 50));
        let b = compiled(&base("same", 3, 50));
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(
            a.run_hash(EngineKind::Negotiator),
            b.run_hash(EngineKind::Negotiator)
        );
    }

    #[test]
    fn formatting_does_not_change_the_hash() {
        // Same scenario, reordered keys and different whitespace.
        let a = compiled(&base("fmt", 3, 50));
        let b = compiled(
            r#"{ "phases": [{"epochs": [0, 20], "load": 50, "workload": "poisson"}],
                 "seed": 3, "ports": 4, "tors": 16, "topology": "parallel", "name": "fmt" }"#,
        );
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_output_relevant_field_moves_the_hash() {
        let anchor_text = base("anchor", 3, 50);
        let anchor = compiled(&anchor_text).content_hash();
        let with = |key_value: &str| {
            anchor_text.replace("\"seed\": 3,", &format!("\"seed\": 3, {key_value},"))
        };
        // Every top-level key reaches the output, so each has a case: a
        // key added to the schema fails here until it gets one. All the
        // variants, and the anchor, must hash pairwise apart.
        let mut variants = vec![anchor_text.clone()];
        for &key in crate::spec::TOP_KEYS {
            variants.extend(match key {
                // The name reaches the report header; a description only
                // the artifact line, but that line is output surface too.
                "name" => vec![base("renamed", 3, 50)],
                "description" => vec![with(r#""description": "d""#)],
                // The fabric and the phase span shape the flows (and
                // nothing else in the key restates them once the flows are
                // not hashed).
                "topology" => vec![anchor_text.replace("parallel", "thin_clos")],
                "tors" => vec![anchor_text.replace("\"tors\": 16", "\"tors\": 20")],
                "ports" => vec![anchor_text.replace("\"ports\": 4", "\"ports\": 2")],
                "port_gbps" => vec![with(r#""port_gbps": 50"#)],
                "host_gbps" => vec![with(r#""host_gbps": 200"#)],
                "propagation_ns" => vec![with(r#""propagation_ns": 1000"#)],
                // A mode's name and its parameter.
                "mode" => vec![
                    with(r#""mode": "iterative""#),
                    with(r#""mode": {"kind": "iterative", "rounds": 3}"#),
                    with(r#""mode": "hol_delay""#),
                    with(r#""mode": {"kind": "hol_delay", "alpha": 0.01}"#),
                    with(r#""mode": "stateful""#),
                ],
                // The seed changes the workload and the engine RNG.
                "seed" => vec![base("anchor", 4, 50)],
                // Which engines run, and in which order they report.
                "engines" => vec![
                    with(r#""engines": ["negotiator"]"#),
                    with(r#""engines": ["oblivious", "negotiator"]"#),
                ],
                // Load, dist, span and label of a phase.
                "phases" => vec![
                    base("anchor", 3, 60),
                    anchor_text.replace("\"load\"", "\"dist\": \"google\", \"load\""),
                    anchor_text.replace("[0, 20]", "[0, 21]"),
                    anchor_text.replace("\"workload\"", "\"label\": \"warm\", \"workload\""),
                ],
                "events" => vec![with_events(
                    r#"{"at_epoch": 5, "action": "fail_random", "ratio": 0.1, "seed": 1}"#,
                )],
                key => panic!("top-level key {key:?} has no case that moves the hash"),
            });
        }
        let hashes: Vec<u64> = variants
            .iter()
            .map(|v| compiled(v).content_hash())
            .collect();
        for (i, a) in hashes.iter().enumerate() {
            for (j, b) in hashes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{}\n{}", variants[i], variants[j]);
            }
        }
        // The fault timeline: a link action's port, a fail_random seed, an
        // inject moved one epoch, a link action and an inject swapped
        // across epochs.
        let link = |at: u64, port: u64| {
            format!(
                r#"{{"at_epoch": {at}, "action": "fail_links", "links": [{{"tor": 1, "port": {port}}}]}}"#
            )
        };
        let random = |seed: u64| {
            format!(r#"{{"at_epoch": 9, "action": "fail_random", "ratio": 0.1, "seed": {seed}}}"#)
        };
        let gray = |at: u64| {
            format!(
                r#"{{"at_epoch": {at}, "inject": {{"kind": "gray_start", "drop_prob": 0.5, "seed": 7}}}}"#
            )
        };
        let timeline =
            |events: &[String]| compiled(&with_events(&events.join(", "))).content_hash();
        let timed = timeline(&[link(5, 0), random(1), gray(7)]);
        assert_ne!(timed, anchor);
        for other in [
            [link(5, 1), random(1), gray(7)],
            [link(5, 0), random(2), gray(7)],
            [link(5, 0), random(1), gray(8)],
            [link(7, 0), random(1), gray(5)],
        ] {
            assert_ne!(timeline(&other), timed, "{other:?}");
        }
        // An `action` and an `inject` at one epoch run identically
        // whichever the file spells first, so they share a key.
        assert_eq!(
            timeline(&[link(5, 0), gray(5)]),
            timeline(&[gray(5), link(5, 0)])
        );
        // Engines differ per run.
        let c = compiled(&base("anchor", 3, 50));
        assert_ne!(
            c.run_hash(EngineKind::Negotiator),
            c.run_hash(EngineKind::Oblivious)
        );
    }

    #[test]
    fn every_workload_parameter_moves_the_hash() {
        let with_phases = |phases: &str| {
            compiled(&format!(
                r#"{{"name": "w", "topology": "parallel", "tors": 16, "ports": 4,
                    "phases": [{phases}]}}"#
            ))
            .content_hash()
        };
        let incast = with_phases(
            r#"{"workload": "incast", "degree": 4, "flow_bytes": 1000, "every_epochs": 5,
                "epochs": [0, 20]}"#,
        );
        for phases in [
            r#"{"workload": "incast", "degree": 5, "flow_bytes": 1000, "every_epochs": 5,
                "epochs": [0, 20]}"#,
            r#"{"workload": "incast", "degree": 4, "flow_bytes": 1001, "every_epochs": 5,
                "epochs": [0, 20]}"#,
            r#"{"workload": "incast", "degree": 4, "flow_bytes": 1000, "every_epochs": 4,
                "epochs": [0, 20]}"#,
            r#"{"workload": "incast", "degree": 4, "flow_bytes": 1000, "epochs": [0, 20]}"#,
        ] {
            assert_ne!(with_phases(phases), incast, "{phases}");
        }
        assert_ne!(
            with_phases(r#"{"workload": "all_to_all", "flow_bytes": 1000, "epochs": [0, 20]}"#),
            with_phases(r#"{"workload": "all_to_all", "flow_bytes": 1001, "epochs": [0, 20]}"#),
        );
        // Phase order: the same two workloads over the same two spans,
        // swapped (labels pinned so only the workloads move).
        let (a, b) = (
            r#""workload": "poisson", "load": 50"#,
            r#""workload": "all_to_all", "flow_bytes": 1000"#,
        );
        let two = |first: &str, second: &str| {
            with_phases(&format!(
                r#"{{"label": "p0", {first}, "epochs": [0, 10]}},
                   {{"label": "p1", {second}, "epochs": [10, 20]}}"#
            ))
        };
        assert_ne!(two(a, b), two(b, a));
    }

    #[test]
    fn replayed_trace_contents_key_the_hash_not_their_formatting() {
        let dir = std::env::temp_dir().join(format!("scenario-hash-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hash_of = |contents: &str| {
            std::fs::write(dir.join("t.tsv"), contents).unwrap();
            let spec = parse_scenario(
                r#"{"name": "r", "topology": "parallel", "tors": 16, "ports": 4,
                    "phases": [{"workload": "trace", "path": "t.tsv", "epochs": [0, 20]}]}"#,
            )
            .unwrap();
            compile(spec, &dir).unwrap().content_hash()
        };
        let anchor = hash_of("0\t1\t1000\t0\n2\t3\t500\t100\n");
        // Same path, different flows (a size, an endpoint, an arrival, a
        // dropped line): the file's contents are what is replayed.
        for other in [
            "0\t1\t1001\t0\n2\t3\t500\t100\n",
            "0\t1\t1000\t0\n2\t4\t500\t100\n",
            "0\t1\t1000\t0\n2\t3\t500\t101\n",
            "0\t1\t1000\t0\n",
        ] {
            assert_ne!(hash_of(other), anchor, "{other:?}");
        }
        // Same flows behind a comment, blank lines and spaces for tabs.
        assert_eq!(
            hash_of("# src dst bytes arrival_ns\n\n0 1 1000 0\n  2   3   500   100  \n"),
            anchor
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_injection_parameter_moves_the_hash() {
        let anchor = compiled(&with_events(
            r#"{"at_epoch": 5, "inject": {"kind": "gray_start", "drop_prob": 0.5, "seed": 7}}"#,
        ))
        .content_hash();
        assert_ne!(anchor, compiled(&base("anchor", 3, 50)).content_hash());
        for events in [
            // Timing, probability, seed, scope — each must move the key.
            r#"{"at_epoch": 6, "inject": {"kind": "gray_start", "drop_prob": 0.5, "seed": 7}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "gray_start", "drop_prob": 0.6, "seed": 7}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "gray_start", "drop_prob": 0.5, "seed": 8}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "gray_start", "drop_prob": 0.5, "seed": 7, "tors": [1]}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "flap_start", "ratio": 0.5, "seed": 7,
                "up_epochs": 2, "down_epochs": 1}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "partition", "groups": 2, "seed": 7}}"#,
            r#"{"at_epoch": 5, "inject": {"kind": "greedy_start", "tors": [2]}}"#,
        ] {
            assert_ne!(
                compiled(&with_events(events)).content_hash(),
                anchor,
                "{events}"
            );
        }
        // A phase-level faults block keys the cache the same way.
        let phased = base("anchor", 3, 50).replace(
            r#""epochs": [0, 20]}"#,
            r#""epochs": [0, 20], "faults": {"gray": {"drop_prob": 0.5, "seed": 7}}}"#,
        );
        assert_ne!(
            compiled(&phased).content_hash(),
            compiled(&base("anchor", 3, 50)).content_hash()
        );
    }

    #[test]
    fn hex_digest_is_16_lowercase_digits() {
        let c = compiled(&base("hexy", 1, 50));
        let digest = hex(c.content_hash());
        assert_eq!(digest.len(), 16);
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(digest, digest.to_lowercase());
    }

    #[test]
    fn hasher_is_order_and_boundary_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("ab").write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes keep fields apart");
        let mut c = StableHasher::new();
        c.write_u64(1).write_u64(2);
        let mut d = StableHasher::new();
        d.write_u64(2).write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }
}
