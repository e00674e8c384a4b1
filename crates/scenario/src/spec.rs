//! The scenario schema and its strict validation.
//!
//! A scenario file is JSON (parsed with `metrics::json` — no external
//! dependencies) describing the fabric, the scheduler, a contiguous
//! sequence of workload phases measured in epochs, and a timeline of
//! link-state events. Validation is deliberately unforgiving: unknown
//! keys, overlapping or gapped phases, out-of-range ToR/port indices,
//! loads outside (0, 100] — everything fails with an error pointing at
//! the `line:column` of the offending token, before any simulation
//! starts. The schema is documented end-to-end in the README's
//! "Scenarios" section.

use metrics::json::{line_col, SpannedJson};
use negotiator::SchedulerMode;
use sim::time::Nanos;
use sim::Bandwidth;
use topology::failures::LinkDir;
use topology::{FaultAction, FlapTargets, NetworkConfig, PartitionSpec, TopologyKind};
use workload::FlowSizeDist;

/// A validation error carrying the byte offset it points at (when the
/// offending token has one).
#[derive(Debug)]
struct SpecError {
    pos: Option<usize>,
    msg: String,
}

impl SpecError {
    fn at(pos: usize, msg: impl Into<String>) -> SpecError {
        SpecError {
            pos: Some(pos),
            msg: msg.into(),
        }
    }

    fn render(&self, text: &str) -> String {
        match self.pos {
            Some(pos) => {
                let (line, col) = line_col(text, pos);
                format!("line {line}, column {col}: {}", self.msg)
            }
            None => self.msg.clone(),
        }
    }
}

/// Which engine(s) a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The NegotiaToR epoch engine.
    Negotiator,
    /// The traffic-oblivious rotor + VLB baseline.
    Oblivious,
}

impl EngineKind {
    /// System label for result rows, e.g. `nego/parallel`.
    pub fn label(self, topology: TopologyKind) -> String {
        match self {
            EngineKind::Negotiator => format!("nego/{}", topology.label()),
            EngineKind::Oblivious => format!("oblivious/{}", topology.label()),
        }
    }
}

/// The traffic of one phase.
#[derive(Debug, Clone)]
pub enum WorkloadPhase {
    /// Poisson background traffic at a fractional load.
    Poisson {
        /// Flow-size distribution.
        dist: FlowSizeDist,
        /// Offered load as a fraction of the host aggregate.
        load: f64,
    },
    /// Synchronized incast burst(s): `degree` senders to one destination.
    Incast {
        /// Number of simultaneous senders.
        degree: usize,
        /// Bytes per flow.
        flow_bytes: u64,
        /// Repeat the burst every this many epochs; `None` bursts once at
        /// the phase start.
        every_epochs: Option<u64>,
    },
    /// One synchronized all-to-all shuffle at the phase start.
    AllToAll {
        /// Bytes per flow.
        flow_bytes: u64,
    },
    /// Replay a TSV flow trace (`workload::trace_io`), arrivals offset to
    /// the phase start; flows arriving past the phase end are dropped.
    Trace {
        /// Path, relative to the scenario file.
        path: String,
    },
}

/// One workload phase spanning `[start_epoch, end_epoch)`.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Human label (defaults to `phase<i>`), shown in tables and JSON.
    pub label: String,
    /// First epoch of the phase.
    pub start_epoch: u64,
    /// One past the last epoch of the phase.
    pub end_epoch: u64,
    /// The traffic this phase offers.
    pub workload: WorkloadPhase,
    /// Faults active for exactly this phase's span: each entry starts at
    /// the phase start and its counterpart stop fires at the phase end.
    pub faults: Vec<InjectSpec>,
}

/// One timed event (epochs are absolute): a link `action` or an `inject`.
#[derive(Debug, Clone)]
pub struct EventSpec {
    /// Epoch the event fires at.
    pub at_epoch: u64,
    /// What happens.
    pub inject: InjectSpec,
}

/// One fault action at the spec level: durations are measured in epochs
/// (the scenario's time unit) and converted to nanoseconds by `compile`,
/// which knows the epoch length.
#[derive(Debug, Clone)]
pub enum InjectSpec {
    /// Fail one directed link (a `fail_links` action is one event per
    /// listed link).
    FailLink {
        /// ToR index.
        tor: usize,
        /// Port index.
        port: usize,
        /// Fiber direction.
        dir: LinkDir,
    },
    /// Fail a uniform random fraction of all directed links.
    FailRandom {
        /// Fraction of directed links to fail, in (0, 1].
        ratio: f64,
        /// Sampling seed.
        seed: u64,
    },
    /// Repair every link failed by earlier link actions.
    RepairAll,
    /// Start a duty-cycled link oscillation.
    FlapStart {
        /// Links to oscillate.
        targets: FlapTargets,
        /// Connected epochs per cycle.
        up_epochs: u64,
        /// Dark epochs per cycle.
        down_epochs: u64,
    },
    /// Stop every flap.
    FlapStop,
    /// Partition the ToR set.
    Partition(PartitionSpec),
    /// Heal the partition.
    Heal,
    /// Start a gray failure (control-plane drops, data untouched).
    GrayStart {
        /// Per-(epoch, src, dst) drop probability in `(0, 1]`.
        drop_prob: f64,
        /// Decision seed.
        seed: u64,
        /// Affected source ToRs (`None` = every ToR).
        tors: Option<Vec<usize>>,
    },
    /// End the gray failure.
    GrayStop,
    /// Mark ToRs as greedy granters.
    GreedyStart {
        /// Misbehaving ToRs.
        tors: Vec<usize>,
    },
    /// Every ToR returns to honest granting.
    GreedyStop,
}

impl InjectSpec {
    /// The engine-level action, epoch durations converted at `epoch_len`.
    pub fn to_action(&self, epoch_len: Nanos) -> FaultAction {
        match self {
            InjectSpec::FailLink { tor, port, dir } => FaultAction::FailLink {
                tor: *tor,
                port: *port,
                dir: *dir,
            },
            InjectSpec::FailRandom { ratio, seed } => FaultAction::FailRandom {
                ratio: *ratio,
                seed: *seed,
            },
            InjectSpec::RepairAll => FaultAction::RepairAll,
            InjectSpec::FlapStart {
                targets,
                up_epochs,
                down_epochs,
            } => FaultAction::FlapStart {
                targets: targets.clone(),
                up: up_epochs * epoch_len,
                down: down_epochs * epoch_len,
            },
            InjectSpec::FlapStop => FaultAction::FlapStop,
            InjectSpec::Partition(spec) => FaultAction::Partition(spec.clone()),
            InjectSpec::Heal => FaultAction::Heal,
            InjectSpec::GrayStart {
                drop_prob,
                seed,
                tors,
            } => FaultAction::GrayStart {
                drop_prob: *drop_prob,
                seed: *seed,
                tors: tors.clone(),
            },
            InjectSpec::GrayStop => FaultAction::GrayStop,
            InjectSpec::GreedyStart { tors } => FaultAction::GreedyStart { tors: tors.clone() },
            InjectSpec::GreedyStop => FaultAction::GreedyStop,
        }
    }

    /// The action that ends this fault at a phase's end boundary (used
    /// when the fault comes from a per-phase `faults` block).
    pub fn stop_action(&self) -> Option<FaultAction> {
        FAMILIES
            .iter()
            .find(|family| (family.starts)(self))
            // A stop carries no duration to convert.
            .map(|family| family.end.to_action(0))
    }
}

/// A fully validated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9_-]+`), used in result file names.
    pub name: String,
    /// One-line description, shown by `paper list` and in the JSON.
    pub description: String,
    /// Which flat topology to build.
    pub topology: TopologyKind,
    /// The fabric.
    pub net: NetworkConfig,
    /// Scheduling logic for the NegotiaToR engine (the oblivious baseline
    /// has no scheduler and ignores it).
    pub mode: SchedulerMode,
    /// Master seed: workload generation, engine-internal RNG and
    /// `fail_random` defaults all derive from it.
    pub seed: u64,
    /// Engines to run, in declaration order.
    pub engines: Vec<EngineKind>,
    /// Contiguous workload phases starting at epoch 0.
    pub phases: Vec<PhaseSpec>,
    /// Timed events, sorted by epoch.
    pub events: Vec<EventSpec>,
}

impl ScenarioSpec {
    /// One past the last simulated epoch.
    pub fn total_epochs(&self) -> u64 {
        self.phases.last().map_or(0, |p| p.end_epoch)
    }
}

/// Parse and validate a scenario document. Every error names the
/// `line:column` of the offending token.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    let doc = SpannedJson::parse(text)?;
    validate(&doc).map_err(|e| e.render(text))
}

/// Fabric, bandwidth and horizon caps. The per-ToR state of both engines
/// is O(n²), so fabrics beyond a few thousand ToRs are out of reach
/// anyway; with these bounds every u64 product downstream — `epoch ·
/// epoch_len` (epoch_len < 2^18 ns, epochs < 2^30), `gbps · 10^9`,
/// `slot_len + propagation`, per-phase byte totals — stays far below
/// u64::MAX, so a typo'd scenario fails validation with a pointed error
/// instead of silently wrapping and simulating nonsense.
const MAX_TORS: u64 = 4096;
/// See [`MAX_TORS`].
const MAX_PORTS: u64 = 512;
/// See [`MAX_TORS`].
const MAX_EPOCHS: u64 = 1_000_000_000;
/// See [`MAX_TORS`]. 100 Tbps dwarfs any deployed port or host NIC.
const MAX_GBPS: u64 = 100_000;
/// See [`MAX_TORS`]. One full second of one-way propagation.
const MAX_PROPAGATION_NS: u64 = 1_000_000_000;
/// See [`MAX_TORS`]. A terabyte per flow.
const MAX_FLOW_BYTES: u64 = 1_000_000_000_000;
/// Iterative-matching rounds cap (delay state grows with rounds).
const MAX_ROUNDS: u64 = 64;

const TOP_KEYS: &[&str] = &[
    "name",
    "description",
    "topology",
    "tors",
    "ports",
    "port_gbps",
    "host_gbps",
    "propagation_ns",
    "mode",
    "seed",
    "engines",
    "phases",
    "events",
];

fn validate(doc: &SpannedJson) -> Result<ScenarioSpec, SpecError> {
    expect_obj(doc, "the scenario document")?;
    check_keys(doc, TOP_KEYS, "the scenario")?;

    let name = req_str(doc, "name")?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
    {
        return Err(SpecError::at(
            doc.get("name").expect("required above").pos,
            format!("'name' must be non-empty [a-z0-9_-], got {name:?}"),
        ));
    }
    let description = opt_str(doc, "description")?.unwrap_or_default();
    let topology = match req_str(doc, "topology")?.as_str() {
        "parallel" => TopologyKind::Parallel,
        "thin_clos" => TopologyKind::ThinClos,
        other => {
            return Err(SpecError::at(
                doc.get("topology").expect("required above").pos,
                format!("'topology' must be \"parallel\" or \"thin_clos\", got {other:?}"),
            ))
        }
    };

    let n_tors = opt_u64_range(doc, "tors", 2, MAX_TORS)?.unwrap_or(128) as usize;
    let n_ports = opt_u64_range(doc, "ports", 1, MAX_PORTS)?.unwrap_or(8) as usize;
    if !n_tors.is_multiple_of(n_ports) {
        return Err(SpecError::at(
            doc.get("tors")
                .or_else(|| doc.get("ports"))
                .map_or(doc.pos, |v| v.pos),
            format!("'tors' ({n_tors}) must be divisible by 'ports' ({n_ports})"),
        ));
    }
    let net = NetworkConfig {
        n_tors,
        n_ports,
        port_bandwidth: Bandwidth::from_gbps(
            opt_u64_range(doc, "port_gbps", 1, MAX_GBPS)?.unwrap_or(100),
        ),
        host_bandwidth: Bandwidth::from_gbps(
            opt_u64_range(doc, "host_gbps", 1, MAX_GBPS)?.unwrap_or(400),
        ),
        propagation_delay: opt_u64_range(doc, "propagation_ns", 0, MAX_PROPAGATION_NS)?
            .unwrap_or(2_000),
    };

    let mode = parse_mode(doc)?;
    let seed = opt_u64_min(doc, "seed", 0)?.unwrap_or(1);
    let engines = parse_engines(doc)?;
    let phases = parse_phases(doc, &net, seed)?;
    let events = parse_events(doc, &net, seed, phases.last().expect("non-empty").end_epoch)?;

    Ok(ScenarioSpec {
        name,
        description,
        topology,
        net,
        mode,
        seed,
        engines,
        phases,
        events,
    })
}

fn parse_mode(doc: &SpannedJson) -> Result<SchedulerMode, SpecError> {
    let Some(mode) = doc.get("mode") else {
        return Ok(SchedulerMode::Base);
    };
    if let Some(s) = mode.as_str() {
        return match s {
            "base" => Ok(SchedulerMode::Base),
            "datasize" => Ok(SchedulerMode::DataSize),
            "hol_delay" => Ok(SchedulerMode::HolDelay { alpha: 0.001 }),
            "stateful" => Ok(SchedulerMode::Stateful),
            "projector" => Ok(SchedulerMode::Projector),
            "iterative" => Ok(SchedulerMode::Iterative { rounds: 2 }),
            other => Err(SpecError::at(
                mode.pos,
                format!("unknown scheduler mode {other:?} (base, datasize, hol_delay, stateful, projector, iterative)"),
            )),
        };
    }
    // Object form for parameterized modes.
    expect_obj(mode, "'mode'")?;
    check_keys(mode, &["kind", "rounds", "alpha"], "'mode'")?;
    match req_str(mode, "kind")?.as_str() {
        "iterative" => {
            let rounds = opt_u64_range(mode, "rounds", 1, MAX_ROUNDS)?.unwrap_or(2) as usize;
            Ok(SchedulerMode::Iterative { rounds })
        }
        "hol_delay" => {
            let alpha = match mode.get("alpha") {
                None => 0.001,
                Some(v) => num_in_range(v, "'alpha'", 0.0, f64::INFINITY, false)?,
            };
            Ok(SchedulerMode::HolDelay { alpha })
        }
        other => Err(SpecError::at(
            mode.get("kind").expect("required above").pos,
            format!(
                "parameterized 'mode.kind' must be \"iterative\" or \"hol_delay\", got {other:?}"
            ),
        )),
    }
}

fn parse_engines(doc: &SpannedJson) -> Result<Vec<EngineKind>, SpecError> {
    let Some(engines) = doc.get("engines") else {
        return Ok(vec![EngineKind::Negotiator, EngineKind::Oblivious]);
    };
    let items = engines
        .as_array()
        .ok_or_else(|| SpecError::at(engines.pos, "'engines' must be an array of strings"))?;
    if items.is_empty() {
        return Err(SpecError::at(engines.pos, "'engines' must not be empty"));
    }
    let mut out = Vec::new();
    for item in items {
        let kind = match item.as_str() {
            Some("negotiator") => EngineKind::Negotiator,
            Some("oblivious") => EngineKind::Oblivious,
            _ => {
                return Err(SpecError::at(
                    item.pos,
                    "engine must be \"negotiator\" or \"oblivious\"",
                ))
            }
        };
        if out.contains(&kind) {
            return Err(SpecError::at(item.pos, "duplicate engine"));
        }
        out.push(kind);
    }
    Ok(out)
}

fn parse_phases(
    doc: &SpannedJson,
    net: &NetworkConfig,
    scenario_seed: u64,
) -> Result<Vec<PhaseSpec>, SpecError> {
    let phases = doc
        .get("phases")
        .ok_or_else(|| SpecError::at(doc.pos, "the scenario needs a 'phases' array"))?;
    let items = phases
        .as_array()
        .ok_or_else(|| SpecError::at(phases.pos, "'phases' must be an array"))?;
    if items.is_empty() {
        return Err(SpecError::at(phases.pos, "'phases' must not be empty"));
    }
    let mut out: Vec<PhaseSpec> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        expect_obj(item, "a phase")?;
        let label = opt_str(item, "label")?.unwrap_or_else(|| format!("phase{i}"));
        let epochs = item.get("epochs").ok_or_else(|| {
            SpecError::at(
                item.pos,
                format!("phase '{label}' needs an 'epochs' [start, end] pair"),
            )
        })?;
        let pair = epochs.as_array().unwrap_or(&[]);
        let (start_epoch, end_epoch) = match pair {
            [s, e] => (
                s.as_u64()
                    .ok_or_else(|| SpecError::at(s.pos, "epoch must be a non-negative integer"))?,
                e.as_u64()
                    .ok_or_else(|| SpecError::at(e.pos, "epoch must be a non-negative integer"))?,
            ),
            _ => {
                return Err(SpecError::at(
                    epochs.pos,
                    "'epochs' must be a [start, end] pair",
                ))
            }
        };
        if end_epoch <= start_epoch {
            return Err(SpecError::at(
                epochs.pos,
                format!(
                    "phase '{label}': end epoch {end_epoch} must exceed start epoch {start_epoch}"
                ),
            ));
        }
        if end_epoch > MAX_EPOCHS {
            return Err(SpecError::at(
                epochs.pos,
                format!(
                    "phase '{label}': end epoch {end_epoch} exceeds the {MAX_EPOCHS}-epoch cap"
                ),
            ));
        }
        // Phases must tile the timeline: contiguous, in order, from 0.
        let expected_start = out.last().map_or(0, |p: &PhaseSpec| p.end_epoch);
        match start_epoch.cmp(&expected_start) {
            std::cmp::Ordering::Less => {
                return Err(SpecError::at(
                    epochs.pos,
                    format!(
                        "phase '{label}' starts at epoch {start_epoch}, overlapping the previous phase (ends at {expected_start})"
                    ),
                ))
            }
            std::cmp::Ordering::Greater => {
                return Err(SpecError::at(
                    epochs.pos,
                    format!(
                        "phase '{label}' starts at epoch {start_epoch}, leaving a gap after epoch {expected_start} — phases must be contiguous"
                    ),
                ))
            }
            std::cmp::Ordering::Equal => {}
        }
        let workload = parse_workload(item, &label, net)?;
        let faults = match item.get("faults") {
            None => Vec::new(),
            Some(f) => parse_phase_faults(f, net, scenario_seed, i as u64)?,
        };
        out.push(PhaseSpec {
            label,
            start_epoch,
            end_epoch,
            workload,
            faults,
        });
    }
    Ok(out)
}

fn parse_workload(
    phase: &SpannedJson,
    label: &str,
    net: &NetworkConfig,
) -> Result<WorkloadPhase, SpecError> {
    let kind = req_str(phase, "workload")?;
    let base = ["label", "epochs", "workload", "faults"];
    match kind.as_str() {
        "poisson" => {
            check_keys(
                phase,
                &[&base[..], &["dist", "load"]].concat(),
                "a poisson phase",
            )?;
            let load_val = phase.get("load").ok_or_else(|| {
                SpecError::at(
                    phase.pos,
                    format!("phase '{label}' needs a 'load' percentage"),
                )
            })?;
            let load = num_in_range(load_val, "'load'", 0.0, 100.0, true)? / 100.0;
            let dist = match opt_str(phase, "dist")?.as_deref() {
                None | Some("hadoop") => FlowSizeDist::hadoop(),
                Some("web_search") => FlowSizeDist::web_search(),
                Some("google") => FlowSizeDist::google(),
                Some(other) => {
                    return Err(SpecError::at(
                        phase.get("dist").expect("present").pos,
                        format!("unknown 'dist' {other:?} (hadoop, web_search, google)"),
                    ))
                }
            };
            Ok(WorkloadPhase::Poisson { dist, load })
        }
        "incast" => {
            check_keys(
                phase,
                &[&base[..], &["degree", "flow_bytes", "every_epochs"]].concat(),
                "an incast phase",
            )?;
            let degree_val = phase.get("degree").ok_or_else(|| {
                SpecError::at(phase.pos, format!("phase '{label}' needs a 'degree'"))
            })?;
            let degree = degree_val.as_u64().filter(|&d| d >= 1).ok_or_else(|| {
                SpecError::at(degree_val.pos, "'degree' must be a positive integer")
            })? as usize;
            if degree >= net.n_tors {
                return Err(SpecError::at(
                    degree_val.pos,
                    format!(
                        "incast degree {degree} out of range — the fabric has {} ToRs and one must receive",
                        net.n_tors
                    ),
                ));
            }
            let flow_bytes = req_u64_range(phase, "flow_bytes", 1, MAX_FLOW_BYTES, label)?;
            let every_epochs = opt_u64_range(phase, "every_epochs", 1, MAX_EPOCHS)?;
            Ok(WorkloadPhase::Incast {
                degree,
                flow_bytes,
                every_epochs,
            })
        }
        "all_to_all" => {
            check_keys(
                phase,
                &[&base[..], &["flow_bytes"]].concat(),
                "an all_to_all phase",
            )?;
            let flow_bytes = req_u64_range(phase, "flow_bytes", 1, MAX_FLOW_BYTES, label)?;
            Ok(WorkloadPhase::AllToAll { flow_bytes })
        }
        "trace" => {
            check_keys(phase, &[&base[..], &["path"]].concat(), "a trace phase")?;
            let path = req_str(phase, "path")?;
            Ok(WorkloadPhase::Trace { path })
        }
        other => Err(SpecError::at(
            phase.get("workload").expect("required above").pos,
            format!("unknown workload {other:?} (poisson, incast, all_to_all, trace)"),
        )),
    }
}

fn parse_events(
    doc: &SpannedJson,
    net: &NetworkConfig,
    scenario_seed: u64,
    total_epochs: u64,
) -> Result<Vec<EventSpec>, SpecError> {
    let Some(events) = doc.get("events") else {
        return Ok(Vec::new());
    };
    let items = events
        .as_array()
        .ok_or_else(|| SpecError::at(events.pos, "'events' must be an array"))?;
    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        expect_obj(item, "an event")?;
        check_keys(
            item,
            &["at_epoch", "action", "inject", "links", "ratio", "seed"],
            "an event",
        )?;
        let at = item
            .get("at_epoch")
            .ok_or_else(|| SpecError::at(item.pos, "an event needs an 'at_epoch'"))?;
        let at_epoch = at
            .as_u64()
            .ok_or_else(|| SpecError::at(at.pos, "'at_epoch' must be a non-negative integer"))?;
        if at_epoch >= total_epochs {
            return Err(SpecError::at(
                at.pos,
                format!(
                    "event at epoch {at_epoch} is past the scenario end (epoch {total_epochs})"
                ),
            ));
        }
        // A key belonging to a *different* action must not be silently
        // dropped (the misplaced-parameter variant of the unknown-key rule).
        let reject_stray = |keys: &[&str], action: &str| -> Result<(), SpecError> {
            for &key in keys {
                if let Some(stray) = item.get(key) {
                    return Err(SpecError::at(
                        stray.pos,
                        format!("'{key}' does not apply to the '{action}' action"),
                    ));
                }
            }
            Ok(())
        };
        // An event carries either a link-state 'action' or an adversarial
        // 'inject' — exactly one.
        if let Some(inject) = item.get("inject") {
            if item.get("action").is_some() {
                return Err(SpecError::at(
                    inject.pos,
                    "an event takes either 'action' or 'inject', not both",
                ));
            }
            for &key in &["links", "ratio", "seed"] {
                if let Some(stray) = item.get(key) {
                    return Err(SpecError::at(
                        stray.pos,
                        format!("'{key}' belongs inside the 'inject' object"),
                    ));
                }
            }
            let seed = scenario_seed ^ (0x1AF0_5EED + i as u64);
            out.push(EventSpec {
                at_epoch,
                inject: parse_inject(inject, net, seed)?,
            });
            continue;
        }
        let action = req_str(item, "action")?;
        let inject = match action.as_str() {
            "fail_links" => {
                reject_stray(&["ratio", "seed"], "fail_links")?;
                let links = item
                    .get("links")
                    .ok_or_else(|| SpecError::at(item.pos, "'fail_links' needs a 'links' array"))?;
                let entries = links
                    .as_array()
                    .filter(|l| !l.is_empty())
                    .ok_or_else(|| SpecError::at(links.pos, "'links' must be a non-empty array"))?;
                for entry in entries {
                    let (tor, port, dir) = parse_link(entry, net)?;
                    out.push(EventSpec {
                        at_epoch,
                        inject: InjectSpec::FailLink { tor, port, dir },
                    });
                }
                continue;
            }
            "repair_links" => {
                reject_stray(&["links", "ratio", "seed"], "repair_links")?;
                InjectSpec::RepairAll
            }
            "fail_random" => {
                reject_stray(&["links"], "fail_random")?;
                let ratio_val = item
                    .get("ratio")
                    .ok_or_else(|| SpecError::at(item.pos, "'fail_random' needs a 'ratio'"))?;
                let ratio = num_in_range(ratio_val, "'ratio'", 0.0, 1.0, true)?;
                let seed = opt_u64_min(item, "seed", 0)?
                    .unwrap_or_else(|| scenario_seed ^ (0x5CE7A810 + i as u64));
                InjectSpec::FailRandom { ratio, seed }
            }
            other => {
                return Err(SpecError::at(
                    item.get("action").expect("required above").pos,
                    format!(
                        "unknown action {other:?} (fail_links, repair_links, fail_random){}",
                        did_you_mean(other, &["fail_links", "repair_links", "fail_random"])
                    ),
                ))
            }
        };
        out.push(EventSpec { at_epoch, inject });
    }
    out.sort_by_key(|e| e.at_epoch);
    Ok(out)
}

fn parse_link(
    entry: &SpannedJson,
    net: &NetworkConfig,
) -> Result<(usize, usize, LinkDir), SpecError> {
    expect_obj(entry, "a link")?;
    check_keys(entry, &["tor", "port", "dir"], "a link")?;
    let tor_val = entry
        .get("tor")
        .ok_or_else(|| SpecError::at(entry.pos, "a link needs a 'tor' index"))?;
    let tor = tor_val
        .as_u64()
        .ok_or_else(|| SpecError::at(tor_val.pos, "'tor' must be a non-negative integer"))?
        as usize;
    if tor >= net.n_tors {
        return Err(SpecError::at(
            tor_val.pos,
            format!(
                "ToR index {tor} out of range — the fabric has {} ToRs",
                net.n_tors
            ),
        ));
    }
    let port_val = entry
        .get("port")
        .ok_or_else(|| SpecError::at(entry.pos, "a link needs a 'port' index"))?;
    let port = port_val
        .as_u64()
        .ok_or_else(|| SpecError::at(port_val.pos, "'port' must be a non-negative integer"))?
        as usize;
    if port >= net.n_ports {
        return Err(SpecError::at(
            port_val.pos,
            format!(
                "port index {port} out of range — each ToR has {} uplink ports",
                net.n_ports
            ),
        ));
    }
    let dir = match opt_str(entry, "dir")?.as_deref() {
        None | Some("egress") => LinkDir::Egress,
        Some("ingress") => LinkDir::Ingress,
        Some(other) => {
            return Err(SpecError::at(
                entry.get("dir").expect("present").pos,
                format!("'dir' must be \"egress\" or \"ingress\", got {other:?}"),
            ))
        }
    };
    Ok((tor, port, dir))
}

// ---------------------------------------------------------------------
// Adversarial fault injection (`topology::inject` surface)
// ---------------------------------------------------------------------

/// One fault family with a start and a stop. Events spell the two as
/// `inject` kinds; a phase `faults` block names the family by `phase_key`
/// and implies both (start at the phase start, stop at its end).
struct Family {
    start: &'static str,
    stop: &'static str,
    phase_key: &'static str,
    /// The parameter keys a start takes.
    keys: &'static [&'static str],
    /// Parse a start's parameters out of the object `what` names.
    /// `default_seed` feeds a randomized parameter left without an
    /// explicit seed, so omitting one still yields a reproducible scenario.
    parse: fn(&SpannedJson, &NetworkConfig, u64, &str) -> Result<InjectSpec, SpecError>,
    /// Is this spec the family's start?
    starts: fn(&InjectSpec) -> bool,
    end: InjectSpec,
}

/// The four families, in `faults`-block order (which is also their
/// default-seed lane order).
static FAMILIES: [Family; 4] = [
    Family {
        start: "flap_start",
        stop: "flap_stop",
        phase_key: "flap",
        keys: &["links", "ratio", "seed", "up_epochs", "down_epochs"],
        parse: parse_flap,
        starts: |spec| matches!(spec, InjectSpec::FlapStart { .. }),
        end: InjectSpec::FlapStop,
    },
    Family {
        start: "partition",
        stop: "heal",
        phase_key: "partition",
        keys: &["assign", "groups", "seed"],
        parse: parse_partition,
        starts: |spec| matches!(spec, InjectSpec::Partition(_)),
        end: InjectSpec::Heal,
    },
    Family {
        start: "gray_start",
        stop: "gray_stop",
        phase_key: "gray",
        keys: &["drop_prob", "seed", "tors"],
        parse: parse_gray,
        starts: |spec| matches!(spec, InjectSpec::GrayStart { .. }),
        end: InjectSpec::GrayStop,
    },
    Family {
        start: "greedy_start",
        stop: "greedy_stop",
        phase_key: "greedy",
        keys: &["tors"],
        parse: parse_greedy,
        starts: |spec| matches!(spec, InjectSpec::GreedyStart { .. }),
        end: InjectSpec::GreedyStop,
    },
];

/// Parse an event's `inject` object, dispatching on its `kind`.
fn parse_inject(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
) -> Result<InjectSpec, SpecError> {
    expect_obj(v, "an 'inject'")?;
    let kind = req_str(v, "kind")?;
    let what = format!("a '{kind}' inject");
    for family in &FAMILIES {
        if kind == family.start {
            check_keys(v, &[&["kind"], family.keys].concat(), &what)?;
            return (family.parse)(v, net, default_seed, &what);
        }
        if kind == family.stop {
            check_keys(v, &["kind"], &what)?;
            return Ok(family.end.clone());
        }
    }
    let kinds: Vec<&str> = FAMILIES.iter().flat_map(|f| [f.start, f.stop]).collect();
    Err(SpecError::at(
        v.get("kind").expect("required above").pos,
        format!(
            "unknown inject kind {kind:?} ({}){}",
            kinds.join(", "),
            did_you_mean(&kind, &kinds)
        ),
    ))
}

/// Parse a phase's `faults` block: every listed fault starts at the
/// phase start, and its counterpart stop fires at the phase end — the
/// declarative way to say "this phase runs under adversity".
fn parse_phase_faults(
    v: &SpannedJson,
    net: &NetworkConfig,
    scenario_seed: u64,
    phase_i: u64,
) -> Result<Vec<InjectSpec>, SpecError> {
    expect_obj(v, "'faults'")?;
    let keys: Vec<&str> = FAMILIES.iter().map(|f| f.phase_key).collect();
    check_keys(v, &keys, "a phase 'faults' block")?;
    let mut out = Vec::new();
    for (lane, family) in FAMILIES.iter().enumerate() {
        let Some(params) = v.get(family.phase_key) else {
            continue;
        };
        let what = format!("'faults.{}'", family.phase_key);
        expect_obj(params, &what)?;
        check_keys(params, family.keys, &what)?;
        // Distinct default-seed lanes per phase and per fault family.
        let seed = scenario_seed ^ (0xFA01_7000 + 4 * phase_i + lane as u64);
        out.push((family.parse)(params, net, seed, &what)?);
    }
    if out.is_empty() {
        return Err(SpecError::at(
            v.pos,
            format!("a 'faults' block needs at least one of {}", keys.join(", ")),
        ));
    }
    Ok(out)
}

/// A flap's parameters: its targets and the two half-cycle lengths.
fn parse_flap(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    what: &str,
) -> Result<InjectSpec, SpecError> {
    let targets = parse_flap_targets(v, net, default_seed)?;
    let up_epochs = need_u64(v, "up_epochs", 1, MAX_EPOCHS, what)?;
    let down_epochs = need_u64(v, "down_epochs", 1, MAX_EPOCHS, what)?;
    Ok(InjectSpec::FlapStart {
        targets,
        up_epochs,
        down_epochs,
    })
}

/// Flap targets: an explicit `links` list XOR a random `ratio` (with an
/// optional `seed` that only makes sense for the random form).
fn parse_flap_targets(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
) -> Result<FlapTargets, SpecError> {
    match (v.get("links"), v.get("ratio")) {
        (Some(_), Some(ratio)) => Err(SpecError::at(
            ratio.pos,
            "a flap takes either 'links' or a 'ratio', not both",
        )),
        (None, None) => Err(SpecError::at(
            v.pos,
            "a flap needs 'links' or a random 'ratio'",
        )),
        (Some(links), None) => {
            if let Some(seed) = v.get("seed") {
                return Err(SpecError::at(
                    seed.pos,
                    "'seed' only applies to a random ('ratio') flap",
                ));
            }
            let entries = links
                .as_array()
                .filter(|l| !l.is_empty())
                .ok_or_else(|| SpecError::at(links.pos, "'links' must be a non-empty array"))?;
            let mut parsed = Vec::new();
            for entry in entries {
                parsed.push(parse_link(entry, net)?);
            }
            Ok(FlapTargets::Links(parsed))
        }
        (None, Some(ratio_val)) => {
            let ratio = num_in_range(ratio_val, "'ratio'", 0.0, 1.0, true)?;
            let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
            Ok(FlapTargets::Random { ratio, seed })
        }
    }
}

/// A partition: an explicit per-ToR `assign` array XOR a random
/// `groups` count (with an optional `seed` for the random form).
fn parse_partition(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    _what: &str,
) -> Result<InjectSpec, SpecError> {
    let spec = match (v.get("assign"), v.get("groups")) {
        (Some(_), Some(groups)) => {
            return Err(SpecError::at(
                groups.pos,
                "a partition takes either 'assign' or 'groups', not both",
            ))
        }
        (None, None) => {
            return Err(SpecError::at(
                v.pos,
                "a partition needs a per-ToR 'assign' array or a random 'groups' count",
            ))
        }
        (Some(assign), None) => {
            if let Some(seed) = v.get("seed") {
                return Err(SpecError::at(
                    seed.pos,
                    "'seed' only applies to a random ('groups') partition",
                ));
            }
            let entries = assign
                .as_array()
                .ok_or_else(|| SpecError::at(assign.pos, "'assign' must be an array"))?;
            if entries.len() != net.n_tors {
                return Err(SpecError::at(
                    assign.pos,
                    format!(
                        "'assign' lists {} groups but the fabric has {} ToRs",
                        entries.len(),
                        net.n_tors
                    ),
                ));
            }
            let mut groups = Vec::with_capacity(entries.len());
            for entry in entries {
                let g = entry
                    .as_u64()
                    .filter(|&g| g < net.n_tors as u64)
                    .ok_or_else(|| {
                        SpecError::at(
                            entry.pos,
                            format!("a group id must be an integer below {}", net.n_tors),
                        )
                    })?;
                groups.push(g as u32);
            }
            let first = groups[0];
            if groups.iter().all(|&g| g == first) {
                return Err(SpecError::at(
                    assign.pos,
                    "'assign' puts every ToR in one group — that is no partition",
                ));
            }
            PartitionSpec::Explicit(groups)
        }
        (None, Some(groups_val)) => {
            let groups = groups_val
                .as_u64()
                .filter(|&g| (2..=net.n_tors as u64).contains(&g))
                .ok_or_else(|| {
                    SpecError::at(
                        groups_val.pos,
                        format!("'groups' must be an integer in [2, {}]", net.n_tors),
                    )
                })? as u32;
            let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
            PartitionSpec::Random { groups, seed }
        }
    };
    Ok(InjectSpec::Partition(spec))
}

/// Gray-failure parameters: required `drop_prob`, optional `seed` and
/// optional affected-`tors` scope.
fn parse_gray(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    _what: &str,
) -> Result<InjectSpec, SpecError> {
    let prob_val = v
        .get("drop_prob")
        .ok_or_else(|| SpecError::at(v.pos, "a gray failure needs a 'drop_prob'"))?;
    let drop_prob = num_in_range(prob_val, "'drop_prob'", 0.0, 1.0, true)?;
    let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
    let tors = match v.get("tors") {
        None => None,
        Some(tors_val) => Some(parse_tor_list(tors_val, net)?),
    };
    Ok(InjectSpec::GrayStart {
        drop_prob,
        seed,
        tors,
    })
}

/// The greedy granters: a required `tors` list.
fn parse_greedy(
    v: &SpannedJson,
    net: &NetworkConfig,
    _default_seed: u64,
    what: &str,
) -> Result<InjectSpec, SpecError> {
    let tors_val = v
        .get("tors")
        .ok_or_else(|| SpecError::at(v.pos, format!("{what} needs a 'tors' array")))?;
    Ok(InjectSpec::GreedyStart {
        tors: parse_tor_list(tors_val, net)?,
    })
}

/// A non-empty, duplicate-free list of in-range ToR indices.
fn parse_tor_list(v: &SpannedJson, net: &NetworkConfig) -> Result<Vec<usize>, SpecError> {
    let entries = v
        .as_array()
        .filter(|t| !t.is_empty())
        .ok_or_else(|| SpecError::at(v.pos, "'tors' must be a non-empty array"))?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let tor = entry
            .as_u64()
            .filter(|&t| t < net.n_tors as u64)
            .ok_or_else(|| {
                SpecError::at(
                    entry.pos,
                    format!(
                        "ToR index out of range — the fabric has {} ToRs",
                        net.n_tors
                    ),
                )
            })? as usize;
        if out.contains(&tor) {
            return Err(SpecError::at(
                entry.pos,
                format!("duplicate ToR index {tor}"),
            ));
        }
        out.push(tor);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Small typed accessors over SpannedJson, all error-reporting by position
// ---------------------------------------------------------------------

fn expect_obj(v: &SpannedJson, what: &str) -> Result<(), SpecError> {
    if v.members().is_some() {
        Ok(())
    } else {
        Err(SpecError::at(
            v.pos,
            format!("{what} must be an object, got {}", v.kind()),
        ))
    }
}

/// Reject members outside `allowed` (typo protection — a misspelled key
/// must not silently fall back to a default) and duplicate keys (lookups
/// return the first occurrence, so a repeated key's later value would be
/// silently dropped).
fn check_keys(v: &SpannedJson, allowed: &[&str], what: &str) -> Result<(), SpecError> {
    let mut seen: Vec<&str> = Vec::new();
    for (key_pos, key, _) in v.members().into_iter().flatten() {
        if seen.contains(&key.as_str()) {
            return Err(SpecError::at(
                *key_pos,
                format!("duplicate key {key:?} in {what} — the earlier value would win silently"),
            ));
        }
        seen.push(key);
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::at(
                *key_pos,
                format!(
                    "unknown key {key:?} in {what} (allowed: {}){}",
                    allowed.join(", "),
                    did_you_mean(key, allowed)
                ),
            ));
        }
    }
    Ok(())
}

/// ` — did you mean "x"?` when a candidate sits within a small edit
/// distance of the input, else empty. Candidates are scanned in sorted
/// order (mirroring the lint module's sorted-rule lookup) so ties break
/// the same way on every platform.
fn did_you_mean(input: &str, candidates: &[&str]) -> String {
    let mut sorted: Vec<&str> = candidates.to_vec();
    sorted.sort_unstable();
    let mut best: Option<(usize, &str)> = None;
    for cand in sorted {
        let d = edit_distance(input, cand);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    match best {
        // One edit is always plausible; two only on longer names, so
        // short keys like "at" never suggest an unrelated "al".
        Some((d, cand)) if d >= 1 && (d == 1 || (d == 2 && input.len() >= 5)) => {
            format!(" — did you mean {cand:?}?")
        }
        _ => String::new(),
    }
}

/// Levenshtein distance, two-row dynamic program over bytes (keys are
/// ASCII identifiers).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            curr[j + 1] = subst.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

fn req_str(v: &SpannedJson, key: &str) -> Result<String, SpecError> {
    match v.get(key) {
        None => Err(SpecError::at(
            v.pos,
            format!("missing required key '{key}'"),
        )),
        Some(s) => s.as_str().map(str::to_string).ok_or_else(|| {
            SpecError::at(s.pos, format!("'{key}' must be a string, got {}", s.kind()))
        }),
    }
}

fn opt_str(v: &SpannedJson, key: &str) -> Result<Option<String>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            SpecError::at(s.pos, format!("'{key}' must be a string, got {}", s.kind()))
        }),
    }
}

fn opt_u64_min(v: &SpannedJson, key: &str, min: u64) -> Result<Option<u64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .filter(|&x| x >= min)
            .map(Some)
            .ok_or_else(|| SpecError::at(n.pos, format!("'{key}' must be an integer >= {min}"))),
    }
}

fn opt_u64_range(v: &SpannedJson, key: &str, min: u64, max: u64) -> Result<Option<u64>, SpecError> {
    match opt_u64_min(v, key, min)? {
        Some(x) if x > max => Err(SpecError::at(
            v.get(key).expect("present").pos,
            format!("'{key}' = {x} exceeds the supported maximum of {max}"),
        )),
        other => Ok(other),
    }
}

fn req_u64_range(
    v: &SpannedJson,
    key: &str,
    min: u64,
    max: u64,
    label: &str,
) -> Result<u64, SpecError> {
    opt_u64_range(v, key, min, max)?
        .ok_or_else(|| SpecError::at(v.pos, format!("phase '{label}' needs a '{key}'")))
}

/// Like [`req_u64_range`] but phrased for non-phase containers.
fn need_u64(v: &SpannedJson, key: &str, min: u64, max: u64, what: &str) -> Result<u64, SpecError> {
    opt_u64_range(v, key, min, max)?
        .ok_or_else(|| SpecError::at(v.pos, format!("{what} needs a '{key}'")))
}

/// A number in `(lo, hi]` (exclusive low — loads and ratios of zero are
/// meaningless; `closed_hi` includes the upper bound).
fn num_in_range(
    v: &SpannedJson,
    what: &str,
    lo: f64,
    hi: f64,
    closed_hi: bool,
) -> Result<f64, SpecError> {
    let x = v.as_f64().ok_or_else(|| {
        SpecError::at(v.pos, format!("{what} must be a number, got {}", v.kind()))
    })?;
    let in_range = x.is_finite() && x > lo && if closed_hi { x <= hi } else { x < hi };
    if in_range {
        Ok(x)
    } else {
        Err(SpecError::at(
            v.pos,
            format!(
                "{what} = {x} is out of range ({lo}, {hi}{}",
                if closed_hi { "]" } else { ")" }
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(
            r#"{{
  "name": "t",
  "topology": "parallel",
  "tors": 16,
  "ports": 4,
  "phases": [
    {{"workload": "poisson", "load": 50, "epochs": [0, 100]}}
  ]{extra}
}}"#
        )
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = parse_scenario(&minimal("")).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.net.n_tors, 16);
        assert_eq!(s.net.host_bandwidth.bps(), 400_000_000_000);
        assert_eq!(s.seed, 1);
        assert_eq!(s.engines.len(), 2);
        assert_eq!(s.total_epochs(), 100);
        assert!(matches!(s.mode, SchedulerMode::Base));
        let WorkloadPhase::Poisson { load, .. } = &s.phases[0].workload else {
            panic!("poisson phase")
        };
        assert!((load - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_key_points_at_line_and_column() {
        let text = "{\n  \"name\": \"t\",\n  \"topolojy\": \"parallel\",\n  \"phases\": []\n}";
        let err = parse_scenario(text).unwrap_err();
        assert!(err.starts_with("line 3, column 3:"), "{err}");
        assert!(err.contains("unknown key \"topolojy\""), "{err}");
    }

    #[test]
    fn overlapping_and_gapped_phases_rejected() {
        let text = r#"{
  "name": "t", "topology": "parallel", "tors": 16, "ports": 4,
  "phases": [
    {"workload": "poisson", "load": 50, "epochs": [0, 100]},
    {"workload": "poisson", "load": 80, "epochs": [90, 200]}
  ]
}"#;
        let err = parse_scenario(text).unwrap_err();
        assert!(err.contains("line 5"), "{err}");
        assert!(err.contains("overlapping"), "{err}");
        let gapped = text.replace("[90, 200]", "[110, 200]");
        let err = parse_scenario(&gapped).unwrap_err();
        assert!(err.contains("gap"), "{err}");
    }

    #[test]
    fn out_of_range_indices_rejected_with_position() {
        let text = minimal(
            r#",
  "events": [
    {"at_epoch": 10, "action": "fail_links",
     "links": [{"tor": 99, "port": 0, "dir": "egress"}]}
  ]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("ToR index 99 out of range"), "{err}");
        assert!(err.contains("line 11"), "{err}");
        let bad_port = text
            .replace("\"tor\": 99", "\"tor\": 3")
            .replace("\"port\": 0", "\"port\": 7");
        let err = parse_scenario(&bad_port).unwrap_err();
        assert!(err.contains("port index 7 out of range"), "{err}");
    }

    #[test]
    fn loads_ratios_and_epochs_validated() {
        let err =
            parse_scenario(&minimal("").replace("\"load\": 50", "\"load\": 150")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_scenario(&minimal("").replace("[0, 100]", "[100, 100]")).unwrap_err();
        assert!(err.contains("must exceed"), "{err}");
        let text = minimal(
            r#",
  "events": [{"at_epoch": 10, "action": "fail_random", "ratio": 1.5}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("'ratio' = 1.5 is out of range"), "{err}");
        let text = minimal(
            r#",
  "events": [{"at_epoch": 500, "action": "repair_links"}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("past the scenario end"), "{err}");
    }

    #[test]
    fn stray_action_parameters_rejected() {
        // A parameter belonging to a different action must not be
        // silently dropped.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 10, "action": "fail_links", "ratio": 0.3,
              "links": [{"tor": 1, "port": 0, "dir": "egress"}]}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("'ratio' does not apply"), "{err}");
        let text = minimal(
            r#",
  "events": [{"at_epoch": 10, "action": "fail_random", "ratio": 0.3,
              "links": [{"tor": 1, "port": 0, "dir": "egress"}]}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("'links' does not apply"), "{err}");
    }

    #[test]
    fn duplicate_keys_rejected() {
        // The later value of a repeated key would silently lose to the
        // earlier one; reject it at the second occurrence.
        let text = minimal(
            r#",
  "seed": 1,
  "seed": 7"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("duplicate key \"seed\""), "{err}");
        assert!(err.contains("line 10"), "{err}");
    }

    #[test]
    fn fabric_and_horizon_caps_prevent_overflow() {
        let err =
            parse_scenario(&minimal("").replace("\"tors\": 16", "\"tors\": 1048576")).unwrap_err();
        assert!(err.contains("exceeds the supported maximum"), "{err}");
        let err =
            parse_scenario(&minimal("").replace("[0, 100]", "[0, 40000000000000000]")).unwrap_err();
        assert!(err.contains("epoch cap"), "{err}");
        // Bandwidths, propagation and flow sizes are capped too — e.g. a
        // 2e10 Gbps host aggregate would wrap `gbps · 10^9` in release
        // builds and silently mis-scale every Poisson load.
        for extra in [
            ",\n  \"host_gbps\": 20000000000",
            ",\n  \"port_gbps\": 20000000000",
            ",\n  \"propagation_ns\": 10000000000",
        ] {
            let err = parse_scenario(&minimal(extra)).unwrap_err();
            assert!(err.contains("exceeds the supported maximum"), "{err}");
        }
        let text = minimal("").replace(
            r#"{"workload": "poisson", "load": 50, "epochs": [0, 100]}"#,
            r#"{"workload": "incast", "degree": 4, "flow_bytes": 10000000000000000, "epochs": [0, 100]}"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("exceeds the supported maximum"), "{err}");
    }

    #[test]
    fn modes_and_engines_parse() {
        let text = minimal(
            r#",
  "mode": {"kind": "iterative", "rounds": 3},
  "engines": ["negotiator"]"#,
        );
        let s = parse_scenario(&text).unwrap();
        assert!(matches!(s.mode, SchedulerMode::Iterative { rounds: 3 }));
        assert_eq!(s.engines, vec![EngineKind::Negotiator]);
        let err = parse_scenario(&minimal(
            r#",
  "engines": []"#,
        ))
        .unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
        let err = parse_scenario(
            &minimal(
                r#",
  "mode": "fancy"#,
            )
            .replace("\"fancy", "\"fancy\""),
        )
        .unwrap_err();
        assert!(err.contains("unknown scheduler mode"), "{err}");
    }

    #[test]
    fn inject_events_parse_and_default_seeds_derive() {
        let text = minimal(
            r#",
  "events": [
    {"at_epoch": 5, "inject": {"kind": "gray_start", "drop_prob": 0.5, "tors": [0, 1]}},
    {"at_epoch": 40, "inject": {"kind": "gray_stop"}},
    {"at_epoch": 10, "inject": {"kind": "flap_start", "ratio": 0.1,
                                "up_epochs": 2, "down_epochs": 1}},
    {"at_epoch": 20, "inject": {"kind": "partition", "groups": 2}},
    {"at_epoch": 30, "inject": {"kind": "heal"}},
    {"at_epoch": 50, "inject": {"kind": "greedy_start", "tors": [3]}}
  ]"#,
        );
        let s = parse_scenario(&text).unwrap();
        assert_eq!(s.events.len(), 6);
        // Sorted by epoch; spot-check the gray event and its derived seed.
        let InjectSpec::GrayStart {
            drop_prob,
            seed,
            tors,
        } = &s.events[0].inject
        else {
            panic!("gray_start first, got {:?}", s.events[0]);
        };
        assert!((drop_prob - 0.5).abs() < 1e-12);
        assert_eq!(*seed, 1 ^ 0x1AF0_5EED); // scenario seed 1, event index 0
        assert_eq!(tors.as_deref(), Some(&[0usize, 1][..]));
        let InjectSpec::FlapStart {
            targets,
            up_epochs,
            down_epochs,
        } = &s.events[1].inject
        else {
            panic!("flap_start second");
        };
        assert!(
            matches!(targets, FlapTargets::Random { ratio, .. } if (ratio - 0.1).abs() < 1e-12)
        );
        assert_eq!((*up_epochs, *down_epochs), (2, 1));
    }

    #[test]
    fn inject_validation_points_at_the_token() {
        // action XOR inject.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "action": "repair_links", "inject": {"kind": "heal"}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("either 'action' or 'inject'"), "{err}");
        // Flap needs exactly one target form.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "flap_start",
    "ratio": 0.1, "links": [{"tor": 0, "port": 0}], "up_epochs": 1, "down_epochs": 1}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // Explicit partition must cover the fabric and actually split it.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "partition", "assign": [0, 1]}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(
            err.contains("lists 2 groups but the fabric has 16"),
            "{err}"
        );
        let all_zero = format!("[{}]", vec!["0"; 16].join(", "));
        let text = minimal(&format!(
            r#",
  "events": [{{"at_epoch": 1, "inject": {{"kind": "partition", "assign": {all_zero}}}}}]"#
        ));
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("no partition"), "{err}");
        // drop_prob range, greedy tor range and duplicates.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "gray_start", "drop_prob": 1.5}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("'drop_prob' = 1.5 is out of range"), "{err}");
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "greedy_start", "tors": [3, 3]}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("duplicate ToR index 3"), "{err}");
        // Event-level parameters must live inside the inject object.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "seed": 4, "inject": {"kind": "heal"}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("'seed' belongs inside the 'inject'"), "{err}");
    }

    #[test]
    fn phase_faults_block_parses_and_validates() {
        let text = minimal("").replace(
            r#"{"workload": "poisson", "load": 50, "epochs": [0, 100]}"#,
            r#"{"workload": "poisson", "load": 50, "epochs": [0, 100],
      "faults": {"gray": {"drop_prob": 0.3}, "greedy": {"tors": [1, 2]}}}"#,
        );
        let s = parse_scenario(&text).unwrap();
        assert_eq!(s.phases[0].faults.len(), 2);
        assert!(matches!(
            s.phases[0].faults[0],
            InjectSpec::GrayStart { .. }
        ));
        assert!(matches!(
            &s.phases[0].faults[1],
            InjectSpec::GreedyStart { tors } if tors == &[1, 2]
        ));
        let empty = text.replace(
            r#""faults": {"gray": {"drop_prob": 0.3}, "greedy": {"tors": [1, 2]}}"#,
            r#""faults": {}"#,
        );
        let err = parse_scenario(&empty).unwrap_err();
        assert!(err.contains("at least one of"), "{err}");
    }

    #[test]
    fn typos_get_a_did_you_mean_hint() {
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "action": "fail_linsk",
              "links": [{"tor": 0, "port": 0}]}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("did you mean \"fail_links\"?"), "{err}");
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "grey_start", "drop_prob": 0.5}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("did you mean \"gray_start\"?"), "{err}");
        // Unknown keys get the same treatment via check_keys.
        let text = minimal(
            r#",
  "events": [{"at_epoch": 1, "inject": {"kind": "gray_start", "drop_probb": 0.5}}]"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("did you mean \"drop_prob\"?"), "{err}");
        // A wildly wrong name earns no guess.
        let err = parse_scenario(&minimal("").replace("\"topology\"", "\"zzzzzz\"")).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn syntax_errors_point_at_the_spot() {
        let err = parse_scenario("{\n  \"name\": \"t\",,\n}").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn thin_clos_divisibility_checked() {
        let text = minimal("").replace("\"tors\": 16", "\"tors\": 18");
        let err = parse_scenario(&text).unwrap_err();
        assert!(err.contains("divisible"), "{err}");
    }
}
