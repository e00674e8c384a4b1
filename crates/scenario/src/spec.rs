//! The scenario schema and its strict validation.
//!
//! A scenario file is JSON (parsed with `metrics::json` — no external
//! dependencies) describing the fabric, the scheduler, a contiguous
//! sequence of workload phases measured in epochs, and one timeline of
//! fault events: link actions and injected faults. Validation is
//! deliberately unforgiving: unknown keys, overlapping or gapped phases,
//! out-of-range ToR/port indices, loads outside (0, 100] — everything
//! fails with an error pointing at the `line:column` of the offending
//! token, before any simulation starts. The schema is documented
//! end-to-end in the README's "Scenarios" section.
//!
//! Every closed vocabulary of the format is one table below, which the
//! validator, the content hash and `paper list` all read names from.

use std::fmt::Display;

use metrics::json::{line_col, SpannedJson};
use negotiator::SchedulerMode;
use sim::time::Nanos;
use sim::Bandwidth;
use topology::failures::LinkDir;
use topology::{FaultAction, FlapTargets, NetworkConfig, PartitionSpec, TopologyKind};
use workload::FlowSizeDist;

/// A validation error carrying the byte offset of the offending token.
#[derive(Debug)]
struct SpecError {
    pos: usize,
    msg: String,
}

impl SpecError {
    fn at(pos: usize, msg: impl Into<String>) -> SpecError {
        let msg = msg.into();
        SpecError { pos, msg }
    }

    fn render(&self, text: &str) -> String {
        let (line, col) = line_col(text, self.pos);
        format!("line {line}, column {col}: {}", self.msg)
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

impl WorkloadPhase {
    /// The `workload` name a scenario file gives this phase's traffic.
    pub fn kind(&self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|row| (row.is)(self))
            .expect("every workload has a row")
            .kind
    }
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

/// One fault action at the spec level: a [`FaultAction`], except that a
/// flap's spans are in epochs (the scenario's time unit) until `compile`,
/// which knows the epoch length, converts them.
#[derive(Debug, Clone)]
pub enum InjectSpec {
    /// Start a duty-cycled link oscillation.
    FlapStart {
        /// Links to oscillate.
        targets: FlapTargets,
        /// Connected epochs per cycle.
        up_epochs: u64,
        /// Dark epochs per cycle.
        down_epochs: u64,
    },
    /// Any other action: none carries a duration.
    Action(FaultAction),
}

impl InjectSpec {
    /// The engine-level action, epoch durations converted at `epoch_len`.
    pub fn to_action(&self, epoch_len: Nanos) -> FaultAction {
        match self {
            InjectSpec::FlapStart {
                targets,
                up_epochs,
                down_epochs,
            } => FaultAction::FlapStart {
                targets: targets.clone(),
                up: up_epochs * epoch_len,
                down: down_epochs * epoch_len,
            },
            InjectSpec::Action(action) => action.clone(),
        }
    }

    /// The action that ends this fault at a phase's end boundary (used
    /// when the fault comes from a per-phase `faults` block).
    pub fn stop_action(&self) -> Option<FaultAction> {
        FAMILIES
            .iter()
            .find(|family| (family.starts)(self))
            .map(|family| family.end.clone())
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

// ---------------------------------------------------------------------
// The vocabulary tables
// ---------------------------------------------------------------------

/// The keys of the scenario document.
pub(crate) const TOP_KEYS: &[&str] = &[
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
/// The keys every phase takes; its workload adds its own.
const PHASE_KEYS: &[&str] = &["label", "epochs", "workload", "faults"];
/// The keys every event takes; its link action adds its own.
const EVENT_KEYS: &[&str] = &["at_epoch", "action", "inject"];
/// The key naming a `mode` object's or an `inject` object's variant.
const KIND: &[&str] = &["kind"];

/// The flat topologies, by scenario name.
static TOPOLOGIES: [(&str, TopologyKind); 2] = [
    ("parallel", TopologyKind::Parallel),
    ("thin_clos", TopologyKind::ThinClos),
];

/// The engines, by scenario name (also each engine's content-hash tag).
/// A scenario without `engines` runs all of them, in this order.
pub(crate) static ENGINES: [(&str, EngineKind); 2] = [
    ("negotiator", EngineKind::Negotiator),
    ("oblivious", EngineKind::Oblivious),
];

type MakeDist = fn() -> FlowSizeDist;

/// Poisson flow-size distributions, by scenario name; the first is the
/// default.
static DISTS: [(&str, MakeDist); 3] = [
    ("hadoop", FlowSizeDist::hadoop),
    ("web_search", FlowSizeDist::web_search),
    ("google", FlowSizeDist::google),
];

/// Link directions, by scenario name (also the content-hash tag); the
/// first is the default.
pub(crate) static DIRS: [(&str, LinkDir); 2] =
    [("egress", LinkDir::Egress), ("ingress", LinkDir::Ingress)];

/// A scheduler mode: `(name, parameter, mode)` — its name (also its
/// content-hash tag), the one parameter its object form takes beside
/// `kind`, and the mode the name alone means. The string form `"name"` is
/// the object form `{"kind": "name"}`: the parameter at its default.
type Mode = (&'static str, Option<&'static str>, SchedulerMode);

/// The scheduler modes; the first is the default.
static MODES: [Mode; 6] = [
    ("base", None, SchedulerMode::Base),
    ("datasize", None, SchedulerMode::DataSize),
    (
        "hol_delay",
        Some("alpha"),
        SchedulerMode::HolDelay { alpha: 0.001 },
    ),
    ("stateful", None, SchedulerMode::Stateful),
    ("projector", None, SchedulerMode::Projector),
    (
        "iterative",
        Some("rounds"),
        SchedulerMode::Iterative { rounds: 2 },
    ),
];

/// `mode`'s row with its parameter as `v` sets it; the default where `v`
/// (always, for the string form) does not.
fn read_mode(&(_, param, mode): &Mode, v: &SpannedJson) -> Result<SchedulerMode, SpecError> {
    let key = param.unwrap_or_default();
    Ok(match mode {
        SchedulerMode::Iterative { rounds } => SchedulerMode::Iterative {
            rounds: opt_u64_range(v, key, 1, MAX_ROUNDS)?.map_or(rounds, |r| r as usize),
        },
        SchedulerMode::HolDelay { alpha } => SchedulerMode::HolDelay {
            alpha: match v.get(key) {
                None => alpha,
                Some(x) => num_in_range(x, key, 0.0, f64::INFINITY, false)?,
            },
        },
        other => other,
    })
}

/// The name a scenario file gives `mode` (also its content-hash tag).
pub(crate) fn mode_name(mode: SchedulerMode) -> &'static str {
    let variant = std::mem::discriminant(&mode);
    MODES
        .iter()
        .find(|row| std::mem::discriminant(&row.2) == variant)
        .expect("every mode has a row")
        .0
}

/// The name `table` gives `value`.
pub(crate) fn name_of<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table
        .iter()
        .find(|row| row.1 == value)
        .expect("every value has a row")
        .0
}

/// A phase's traffic: its `workload` kind, the keys it takes beside
/// [`PHASE_KEYS`], and its parser (given the phase and its label).
struct Workload {
    kind: &'static str,
    keys: &'static [&'static str],
    parse: fn(&SpannedJson, &str, &NetworkConfig) -> Result<WorkloadPhase, SpecError>,
    /// Is this phase traffic of this kind?
    is: fn(&WorkloadPhase) -> bool,
}

static WORKLOADS: [Workload; 4] = [
    Workload {
        kind: "poisson",
        keys: &["dist", "load"],
        parse: parse_poisson,
        is: |w| matches!(w, WorkloadPhase::Poisson { .. }),
    },
    Workload {
        kind: "incast",
        keys: &["degree", "flow_bytes", "every_epochs"],
        parse: parse_incast,
        is: |w| matches!(w, WorkloadPhase::Incast { .. }),
    },
    Workload {
        kind: "all_to_all",
        keys: &["flow_bytes"],
        parse: |v, label, _| {
            let flow_bytes = flow_bytes(v, label)?;
            Ok(WorkloadPhase::AllToAll { flow_bytes })
        },
        is: |w| matches!(w, WorkloadPhase::AllToAll { .. }),
    },
    Workload {
        kind: "trace",
        keys: &["path"],
        parse: |v, _, _| {
            let path = req_str(v, "path")?.to_string();
            Ok(WorkloadPhase::Trace { path })
        },
        is: |w| matches!(w, WorkloadPhase::Trace { .. }),
    },
];

/// A link action: `(name, keys, parser)` — the keys it takes beside
/// [`EVENT_KEYS`], and a parser that, given the event, the fabric, a
/// default seed and the action's name, returns the faults it starts.
type Action = (
    &'static str,
    &'static [&'static str],
    fn(&SpannedJson, &NetworkConfig, u64, &str) -> Result<Vec<InjectSpec>, SpecError>,
);

static ACTIONS: [Action; 3] = [
    ("fail_links", &["links"], |v, net, _, name| {
        let links = need(v, "links", format_args!("'{name}' needs a 'links' array"))?;
        let links = parse_links(links, net)?.into_iter();
        Ok(links
            .map(|(tor, port, dir)| InjectSpec::Action(FaultAction::FailLink { tor, port, dir }))
            .collect())
    }),
    ("repair_links", &[], |_, _, _, _| {
        Ok(vec![InjectSpec::Action(FaultAction::RepairAll)])
    }),
    (
        "fail_random",
        &["ratio", "seed"],
        |v, _, default_seed, name| {
            let ratio_val = need(v, "ratio", format_args!("'{name}' needs a 'ratio'"))?;
            let ratio = num_in_range(ratio_val, "ratio", 0.0, 1.0, true)?;
            let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
            Ok(vec![InjectSpec::Action(FaultAction::FailRandom {
                ratio,
                seed,
            })])
        },
    ),
];

/// A row of a closed vocabulary: the name a scenario file spells it by.
trait Named {
    fn name(&self) -> &'static str;
}

impl<T> Named for (&'static str, T) {
    fn name(&self) -> &'static str {
        self.0
    }
}

impl<A, B> Named for (&'static str, A, B) {
    fn name(&self) -> &'static str {
        self.0
    }
}

impl Named for Workload {
    fn name(&self) -> &'static str {
        self.kind
    }
}

/// The row of `table` called `name`, or the one vocabulary error, at
/// `pos`.
fn lookup<'t, R: Named>(
    table: &'t [R],
    name: &str,
    noun: &str,
    pos: usize,
) -> Result<&'t R, SpecError> {
    table.iter().find(|row| row.name() == name).ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(Named::name).collect();
        unknown(pos, noun, name, &names)
    })
}

/// The row of `table` that `v`'s string `key` names; `None` when `v` has
/// no `key`.
fn pick<'t, R: Named>(
    table: &'t [R],
    v: &SpannedJson,
    key: &str,
    noun: &str,
) -> Result<Option<&'t R>, SpecError> {
    let pos = v.get(key).map_or(v.pos, |name| name.pos);
    opt_str(v, key)?
        .map(|name| lookup(table, name, noun, pos))
        .transpose()
}

/// `unknown <noun> "<name>" (<names>)`, with a did-you-mean hint.
fn unknown(pos: usize, noun: &str, name: &str, names: &[&str]) -> SpecError {
    SpecError::at(
        pos,
        format!(
            "unknown {noun} {name:?} ({}){}",
            names.join(", "),
            did_you_mean(name, names)
        ),
    )
}

// ---------------------------------------------------------------------
// The document, its phases and its events
// ---------------------------------------------------------------------

fn validate(doc: &SpannedJson) -> Result<ScenarioSpec, SpecError> {
    expect_obj(doc, "the scenario document")?;
    check_keys(doc, &[TOP_KEYS], "the scenario")?;

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
    let topology = pick(&TOPOLOGIES, doc, "topology", "topology")?
        .ok_or_else(|| missing(doc, "topology"))?
        .1;

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
        name: name.to_string(),
        description: description.to_string(),
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
    const NOUN: &str = "scheduler mode";
    let Some(mode) = doc.get("mode") else {
        return Ok(MODES[0].2);
    };
    let row = match mode.as_str() {
        Some(name) => lookup(&MODES, name, NOUN, mode.pos)?,
        None => {
            expect_obj(mode, "'mode'")?;
            let row = pick(&MODES, mode, "kind", NOUN)?.ok_or_else(|| missing(mode, "kind"))?;
            check_keys(mode, &[KIND, row.1.as_slice()], "'mode'")?;
            row
        }
    };
    read_mode(row, mode)
}

fn parse_engines(doc: &SpannedJson) -> Result<Vec<EngineKind>, SpecError> {
    let Some(engines) = doc.get("engines") else {
        return Ok(ENGINES.iter().map(|row| row.1).collect());
    };
    let not_strings = |pos| SpecError::at(pos, "'engines' must be an array of strings");
    let items = engines.as_array().ok_or_else(|| not_strings(engines.pos))?;
    if items.is_empty() {
        return Err(SpecError::at(engines.pos, "'engines' must not be empty"));
    }
    let mut out = Vec::new();
    for item in items {
        let name = item.as_str().ok_or_else(|| not_strings(item.pos))?;
        let kind = lookup(&ENGINES, name, "engine", item.pos)?.1;
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
    let phases = need(doc, "phases", "the scenario needs a 'phases' array")?;
    let items = phases
        .as_array()
        .ok_or_else(|| SpecError::at(phases.pos, "'phases' must be an array"))?;
    if items.is_empty() {
        return Err(SpecError::at(phases.pos, "'phases' must not be empty"));
    }
    let mut out: Vec<PhaseSpec> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        expect_obj(item, "a phase")?;
        let label = opt_str(item, "label")?.map_or_else(|| format!("phase{i}"), str::to_string);
        let epochs = need(
            item,
            "epochs",
            format_args!("phase '{label}' needs an 'epochs' [start, end] pair"),
        )?;
        let bad = |msg: String| Err(SpecError::at(epochs.pos, msg));
        let epoch = |e: &SpannedJson| {
            e.as_u64()
                .ok_or_else(|| SpecError::at(e.pos, "epoch must be a non-negative integer"))
        };
        let (start_epoch, end_epoch) = match epochs.as_array().unwrap_or(&[]) {
            [s, e] => (epoch(s)?, epoch(e)?),
            _ => return bad("'epochs' must be a [start, end] pair".into()),
        };
        if end_epoch <= start_epoch {
            return bad(format!(
                "phase '{label}': end epoch {end_epoch} must exceed start epoch {start_epoch}"
            ));
        }
        if end_epoch > MAX_EPOCHS {
            return bad(format!(
                "phase '{label}': end epoch {end_epoch} exceeds the {MAX_EPOCHS}-epoch cap"
            ));
        }
        // Phases must tile the timeline: contiguous, in order, from 0.
        let expected_start = out.last().map_or(0, |p: &PhaseSpec| p.end_epoch);
        if start_epoch < expected_start {
            return bad(format!(
                "phase '{label}' starts at epoch {start_epoch}, overlapping the previous phase (ends at {expected_start})"
            ));
        }
        if start_epoch > expected_start {
            return bad(format!(
                "phase '{label}' starts at epoch {start_epoch}, leaving a gap after epoch {expected_start} — phases must be contiguous"
            ));
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
    let row = pick(&WORKLOADS, phase, "workload", "workload")?
        .ok_or_else(|| missing(phase, "workload"))?;
    let article = if row.kind.starts_with(['a', 'e', 'i', 'o', 'u']) {
        "an"
    } else {
        "a"
    };
    check_keys(
        phase,
        &[PHASE_KEYS, row.keys],
        format_args!("{article} {} phase", row.kind),
    )?;
    (row.parse)(phase, label, net)
}

fn parse_poisson(
    phase: &SpannedJson,
    label: &str,
    _net: &NetworkConfig,
) -> Result<WorkloadPhase, SpecError> {
    let load_val = need(
        phase,
        "load",
        format_args!("phase '{label}' needs a 'load' percentage"),
    )?;
    let load = num_in_range(load_val, "load", 0.0, 100.0, true)? / 100.0;
    let dist = (pick(&DISTS, phase, "dist", "'dist'")?
        .unwrap_or(&DISTS[0])
        .1)();
    Ok(WorkloadPhase::Poisson { dist, load })
}

fn parse_incast(
    phase: &SpannedJson,
    label: &str,
    net: &NetworkConfig,
) -> Result<WorkloadPhase, SpecError> {
    let degree_val = need(
        phase,
        "degree",
        format_args!("phase '{label}' needs a 'degree'"),
    )?;
    let degree = degree_val
        .as_u64()
        .filter(|&d| d >= 1)
        .ok_or_else(|| SpecError::at(degree_val.pos, "'degree' must be a positive integer"))?
        as usize;
    let n_tors = net.n_tors;
    if degree >= n_tors {
        return Err(SpecError::at(
            degree_val.pos,
            format!("incast degree {degree} out of range — the fabric has {n_tors} ToRs and one must receive"),
        ));
    }
    let flow_bytes = flow_bytes(phase, label)?;
    let every_epochs = opt_u64_range(phase, "every_epochs", 1, MAX_EPOCHS)?;
    Ok(WorkloadPhase::Incast {
        degree,
        flow_bytes,
        every_epochs,
    })
}

/// A phase's required `flow_bytes`.
fn flow_bytes(phase: &SpannedJson, label: &str) -> Result<u64, SpecError> {
    req_u64(
        phase,
        "flow_bytes",
        1,
        MAX_FLOW_BYTES,
        format_args!("phase '{label}'"),
    )
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
    // Every link action's parameters sit on the event beside `action`.
    let params: Vec<&str> = ACTIONS.iter().flat_map(|a| a.1).copied().collect();
    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        expect_obj(item, "an event")?;
        check_keys(item, &[EVENT_KEYS, &params], "an event")?;
        let at = need(item, "at_epoch", "an event needs an 'at_epoch'")?;
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
        // A parameter the event's action does not take must not be
        // silently dropped (the misplaced-parameter variant of the
        // unknown-key rule): the first one present, if any.
        let stray = |takes: &[&str]| {
            params
                .iter()
                .filter(|key| !takes.contains(key))
                .find_map(|&key| item.get(key).map(|v| (key, v.pos)))
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
            if let Some((key, pos)) = stray(&[]) {
                return Err(SpecError::at(
                    pos,
                    format!("'{key}' belongs inside the 'inject' object"),
                ));
            }
            let seed = scenario_seed ^ (0x1AF0_5EED + i as u64);
            out.push(EventSpec {
                at_epoch,
                inject: parse_inject(inject, net, seed)?,
            });
            continue;
        }
        let action =
            pick(&ACTIONS, item, "action", "action")?.ok_or_else(|| missing(item, "action"))?;
        if let Some((key, pos)) = stray(action.1) {
            return Err(SpecError::at(
                pos,
                format!("'{key}' does not apply to the '{}' action", action.0),
            ));
        }
        let seed = scenario_seed ^ (0x5CE7A810 + i as u64);
        for inject in (action.2)(item, net, seed, action.0)? {
            out.push(EventSpec { at_epoch, inject });
        }
    }
    out.sort_by_key(|e| e.at_epoch);
    Ok(out)
}

/// A non-empty `links` array of link objects.
fn parse_links(
    links: &SpannedJson,
    net: &NetworkConfig,
) -> Result<Vec<(usize, usize, LinkDir)>, SpecError> {
    let entries = links
        .as_array()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| SpecError::at(links.pos, "'links' must be a non-empty array"))?;
    entries.iter().map(|entry| parse_link(entry, net)).collect()
}

fn parse_link(
    entry: &SpannedJson,
    net: &NetworkConfig,
) -> Result<(usize, usize, LinkDir), SpecError> {
    expect_obj(entry, "a link")?;
    check_keys(entry, &[&["tor", "port", "dir"]], "a link")?;
    // An index below `bound`; `range` words the out-of-range error.
    let index = |key: &str, bound: usize, range: &dyn Fn(usize) -> String| {
        let v = need(entry, key, format_args!("a link needs a '{key}' index"))?;
        let at = |msg| Err(SpecError::at(v.pos, msg));
        match v.as_u64().map(|i| i as usize) {
            None => at(format!("'{key}' must be a non-negative integer")),
            Some(i) if i >= bound => at(range(i)),
            Some(i) => Ok(i),
        }
    };
    let (n_tors, n_ports) = (net.n_tors, net.n_ports);
    let tor = index("tor", n_tors, &|i| {
        format!("ToR index {i} out of range — the fabric has {n_tors} ToRs")
    })?;
    let port = index("port", n_ports, &|i| {
        format!("port index {i} out of range — each ToR has {n_ports} uplink ports")
    })?;
    let dir = pick(&DIRS, entry, "dir", "'dir'")?.unwrap_or(&DIRS[0]).1;
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
    end: FaultAction,
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
        end: FaultAction::FlapStop,
    },
    Family {
        start: "partition",
        stop: "heal",
        phase_key: "partition",
        keys: &["assign", "groups", "seed"],
        parse: parse_partition,
        starts: |spec| matches!(spec, InjectSpec::Action(FaultAction::Partition(_))),
        end: FaultAction::Heal,
    },
    Family {
        start: "gray_start",
        stop: "gray_stop",
        phase_key: "gray",
        keys: &["drop_prob", "seed", "tors"],
        parse: parse_gray,
        starts: |spec| matches!(spec, InjectSpec::Action(FaultAction::GrayStart { .. })),
        end: FaultAction::GrayStop,
    },
    Family {
        start: "greedy_start",
        stop: "greedy_stop",
        phase_key: "greedy",
        keys: &["tors"],
        parse: |v, net, _, what| {
            let tors = need(v, "tors", format_args!("{what} needs a 'tors' array"))?;
            let tors = parse_tor_list(tors, net)?;
            Ok(InjectSpec::Action(FaultAction::GreedyStart { tors }))
        },
        starts: |spec| matches!(spec, InjectSpec::Action(FaultAction::GreedyStart { .. })),
        end: FaultAction::GreedyStop,
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
            check_keys(v, &[KIND, family.keys], &what)?;
            return (family.parse)(v, net, default_seed, &what);
        }
        if kind == family.stop {
            check_keys(v, &[KIND], &what)?;
            return Ok(InjectSpec::Action(family.end.clone()));
        }
    }
    let kinds: Vec<&str> = FAMILIES.iter().flat_map(|f| [f.start, f.stop]).collect();
    Err(unknown(
        v.get("kind").expect("required above").pos,
        "inject kind",
        kind,
        &kinds,
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
    check_keys(v, &[&keys], "a phase 'faults' block")?;
    let mut out = Vec::new();
    for (lane, family) in FAMILIES.iter().enumerate() {
        let Some(params) = v.get(family.phase_key) else {
            continue;
        };
        let what = format!("'faults.{}'", family.phase_key);
        expect_obj(params, &what)?;
        check_keys(params, &[family.keys], &what)?;
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

/// A flap's parameters: its targets — an explicit `links` list XOR a
/// random `ratio` (with an optional `seed` that only makes sense for the
/// random form) — and the two half-cycle lengths.
fn parse_flap(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    what: &str,
) -> Result<InjectSpec, SpecError> {
    let targets = match (v.get("links"), v.get("ratio")) {
        (Some(_), Some(ratio)) => {
            return Err(SpecError::at(
                ratio.pos,
                "a flap takes either 'links' or a 'ratio', not both",
            ))
        }
        (None, None) => {
            return Err(SpecError::at(
                v.pos,
                "a flap needs 'links' or a random 'ratio'",
            ))
        }
        (Some(links), None) => {
            if let Some(seed) = v.get("seed") {
                return Err(SpecError::at(
                    seed.pos,
                    "'seed' only applies to a random ('ratio') flap",
                ));
            }
            FlapTargets::Links(parse_links(links, net)?)
        }
        (None, Some(ratio_val)) => {
            let ratio = num_in_range(ratio_val, "ratio", 0.0, 1.0, true)?;
            let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
            FlapTargets::Random { ratio, seed }
        }
    };
    Ok(InjectSpec::FlapStart {
        targets,
        up_epochs: req_u64(v, "up_epochs", 1, MAX_EPOCHS, what)?,
        down_epochs: req_u64(v, "down_epochs", 1, MAX_EPOCHS, what)?,
    })
}

/// A partition: an explicit per-ToR `assign` array XOR a random
/// `groups` count (with an optional `seed` for the random form).
fn parse_partition(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    _what: &str,
) -> Result<InjectSpec, SpecError> {
    let n_tors = net.n_tors;
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
            let listed = entries.len();
            if listed != n_tors {
                let msg =
                    format!("'assign' lists {listed} groups but the fabric has {n_tors} ToRs");
                return Err(SpecError::at(assign.pos, msg));
            }
            let mut groups = Vec::with_capacity(listed);
            for entry in entries {
                let below = |&g: &u64| g < n_tors as u64;
                let g = entry.as_u64().filter(below).ok_or_else(|| {
                    SpecError::at(
                        entry.pos,
                        format!("a group id must be an integer below {n_tors}"),
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
                .filter(|&g| (2..=n_tors as u64).contains(&g))
                .ok_or_else(|| {
                    let msg = format!("'groups' must be an integer in [2, {n_tors}]");
                    SpecError::at(groups_val.pos, msg)
                })? as u32;
            let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
            PartitionSpec::Random { groups, seed }
        }
    };
    Ok(InjectSpec::Action(FaultAction::Partition(spec)))
}

/// Gray-failure parameters: required `drop_prob`, optional `seed` and
/// optional affected-`tors` scope.
fn parse_gray(
    v: &SpannedJson,
    net: &NetworkConfig,
    default_seed: u64,
    _what: &str,
) -> Result<InjectSpec, SpecError> {
    let prob_val = need(v, "drop_prob", "a gray failure needs a 'drop_prob'")?;
    let drop_prob = num_in_range(prob_val, "drop_prob", 0.0, 1.0, true)?;
    let seed = opt_u64_min(v, "seed", 0)?.unwrap_or(default_seed);
    let tors = v.get("tors").map(|t| parse_tor_list(t, net)).transpose()?;
    Ok(InjectSpec::Action(FaultAction::GrayStart {
        drop_prob,
        seed,
        tors,
    }))
}

/// A non-empty, duplicate-free list of in-range ToR indices.
fn parse_tor_list(v: &SpannedJson, net: &NetworkConfig) -> Result<Vec<usize>, SpecError> {
    let entries = v
        .as_array()
        .filter(|t| !t.is_empty())
        .ok_or_else(|| SpecError::at(v.pos, "'tors' must be a non-empty array"))?;
    let n_tors = net.n_tors;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let tor = entry
            .as_u64()
            .filter(|&t| t < n_tors as u64)
            .ok_or_else(|| {
                let msg = format!("ToR index out of range — the fabric has {n_tors} ToRs");
                SpecError::at(entry.pos, msg)
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

/// Reject members outside the `allowed` lists (typo protection — a
/// misspelled key must not silently fall back to a default) and duplicate
/// keys (lookups return the first occurrence, so a repeated key's later
/// value would be silently dropped).
fn check_keys(v: &SpannedJson, allowed: &[&[&str]], what: impl Display) -> Result<(), SpecError> {
    let mut seen: Vec<&str> = Vec::new();
    for (key_pos, key, _) in v.members().into_iter().flatten() {
        if seen.contains(&key.as_str()) {
            return Err(SpecError::at(
                *key_pos,
                format!("duplicate key {key:?} in {what} — the earlier value would win silently"),
            ));
        }
        seen.push(key);
        if !allowed.iter().any(|keys| keys.contains(&key.as_str())) {
            let allowed = allowed.concat();
            return Err(SpecError::at(
                *key_pos,
                format!(
                    "unknown key {key:?} in {what} (allowed: {}){}",
                    allowed.join(", "),
                    did_you_mean(key, &allowed)
                ),
            ));
        }
    }
    Ok(())
}

/// ` — did you mean "x"?` when a candidate sits within a small edit
/// distance of the input, else empty. A tie goes to the candidate first in
/// sorted order, so the hint is the same on every platform.
fn did_you_mean(input: &str, candidates: &[&str]) -> String {
    let best = candidates
        .iter()
        .map(|&cand| (edit_distance(input, cand), cand))
        .min();
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

fn missing(v: &SpannedJson, key: &str) -> SpecError {
    SpecError::at(v.pos, format!("missing required key '{key}'"))
}

/// `v`'s member `key`, else the error `needs` (which names the key).
fn need<'v>(
    v: &'v SpannedJson,
    key: &str,
    needs: impl Display,
) -> Result<&'v SpannedJson, SpecError> {
    v.get(key)
        .ok_or_else(|| SpecError::at(v.pos, needs.to_string()))
}

fn req_str<'v>(v: &'v SpannedJson, key: &str) -> Result<&'v str, SpecError> {
    opt_str(v, key)?.ok_or_else(|| missing(v, key))
}

fn opt_str<'v>(v: &'v SpannedJson, key: &str) -> Result<Option<&'v str>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s.as_str().map(Some).ok_or_else(|| {
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

/// [`opt_u64_range`] for a key the object — `what`, as the error names
/// it — needs.
fn req_u64(
    v: &SpannedJson,
    key: &str,
    min: u64,
    max: u64,
    what: impl Display,
) -> Result<u64, SpecError> {
    opt_u64_range(v, key, min, max)?
        .ok_or_else(|| SpecError::at(v.pos, format!("{what} needs a '{key}'")))
}

/// The number `v` (the value of `key`) in `(lo, hi]` (exclusive low —
/// loads and ratios of zero are meaningless; `closed_hi` includes the
/// upper bound).
fn num_in_range(
    v: &SpannedJson,
    key: &str,
    lo: f64,
    hi: f64,
    closed_hi: bool,
) -> Result<f64, SpecError> {
    let x = v.as_f64().ok_or_else(|| {
        SpecError::at(v.pos, format!("'{key}' must be a number, got {}", v.kind()))
    })?;
    let in_range = x.is_finite() && x > lo && if closed_hi { x <= hi } else { x < hi };
    if in_range {
        Ok(x)
    } else {
        Err(SpecError::at(
            v.pos,
            format!(
                "'{key}' = {x} is out of range ({lo}, {hi}{}",
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
    fn mode_string_is_the_object_form_at_its_default() {
        let mode = |m: &str| {
            parse_scenario(&minimal(&format!(",\n  \"mode\": {m}")))
                .unwrap()
                .mode
        };
        for &(name, _, default) in &MODES {
            assert_eq!(mode(&format!("\"{name}\"")), default, "{name}");
            assert_eq!(
                mode(&format!("{{\"kind\": \"{name}\"}}")),
                default,
                "{name}"
            );
        }
        assert_eq!(
            mode(r#"{"kind": "hol_delay", "alpha": 0.01}"#),
            SchedulerMode::HolDelay { alpha: 0.01 }
        );
    }

    #[test]
    fn iterative_mode_rejects_alpha() {
        let text = minimal(
            r#",
  "mode": {"kind": "iterative", "alpha": 0.5}"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert_eq!(
            err,
            "line 9, column 33: unknown key \"alpha\" in 'mode' (allowed: kind, rounds)"
        );
    }

    #[test]
    fn hol_delay_mode_rejects_rounds() {
        let text = minimal(
            r#",
  "mode": {"kind": "hol_delay", "rounds": 9}"#,
        );
        let err = parse_scenario(&text).unwrap_err();
        assert_eq!(
            err,
            "line 9, column 33: unknown key \"rounds\" in 'mode' (allowed: kind, alpha)"
        );
    }

    /// README § "Scenario file schema" and § "Fault injection" name every
    /// key and every name the tables accept.
    #[test]
    fn readme_documents_every_key_and_name() {
        let readme = include_str!("../../../README.md");
        let section = |heading: &str| {
            let start = readme.find(heading).expect(heading) + heading.len();
            let rest = &readme[start..];
            &rest[..rest.find("\n#").unwrap_or(rest.len())]
        };
        let documented = [
            section("\n### Scenario file schema\n"),
            section("\n### Fault injection\n"),
        ]
        .concat();
        // As a whole word: `flap` does not count as mentioned by `flap_start`.
        let mentions = |word: &str| {
            documented.match_indices(word).any(|(at, _)| {
                let ident =
                    |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                !ident(documented[..at].chars().next_back())
                    && !ident(documented[at + word.len()..].chars().next())
            })
        };
        let mut words: Vec<&str> = [TOP_KEYS, PHASE_KEYS, EVENT_KEYS, KIND].concat();
        words.extend(TOPOLOGIES.iter().map(Named::name));
        words.extend(ENGINES.iter().map(Named::name));
        words.extend(DISTS.iter().map(Named::name));
        words.extend(DIRS.iter().map(Named::name));
        for &(name, param, _) in &MODES {
            words.push(name);
            words.extend(param);
        }
        for row in &WORKLOADS {
            words.push(row.kind);
            words.extend(row.keys);
        }
        for &(name, keys, _) in &ACTIONS {
            words.push(name);
            words.extend(keys);
        }
        for row in &FAMILIES {
            words.extend([row.start, row.stop, row.phase_key]);
            words.extend(row.keys);
        }
        let undocumented: Vec<&str> = words.into_iter().filter(|w| !mentions(w)).collect();
        assert!(
            undocumented.is_empty(),
            "README's scenario schema never mentions {undocumented:?}"
        );
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
        let InjectSpec::Action(FaultAction::GrayStart {
            drop_prob,
            seed,
            tors,
        }) = &s.events[0].inject
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
            InjectSpec::Action(FaultAction::GrayStart { .. })
        ));
        assert!(matches!(
            &s.phases[0].faults[1],
            InjectSpec::Action(FaultAction::GreedyStart { tors }) if tors == &[1, 2]
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
