//! Command-line parsing for the `paper` binary.
//!
//! One table, `FLAGS`, says for every flag whether it takes a value and
//! which subcommands it applies to. Parsing reads it (to know how many
//! tokens a flag consumes), the applicability check reads it (a flag given
//! to a subcommand it does not apply to is an error that names both), and
//! [`usage`] is generated from it — so the three cannot disagree. A token
//! starting with `--` is always a flag, never an operand. The parser
//! produces a [`Command`] holding exactly what its subcommand consumes,
//! already typed ([`ServeConfig`], [`QueryOpts`], [`Args`]).

use std::path::PathBuf;
use std::str::FromStr;

use crate::log::LogLevel;
use crate::server::ServeConfig;
use bench::experiments::{find_experiment, Args, EXPERIMENTS};
use bench::traceq::QueryOpts;

/// Default daemon address for `paper serve` / `paper submit`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7470";

/// Smallest accepted `--trace-capacity`: below 1Ki events the ring drops
/// the convergence timeline on even trivial runs, which makes every
/// downstream forensics answer misleading.
pub const MIN_TRACE_CAPACITY: usize = 1024;

/// Default `--context` lines each side of a `paper trace diff` divergence.
pub const DEFAULT_DIFF_CONTEXT: usize = 3;

/// The subcommands of `paper` ([`Sub::shape`] spells each out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Run,
    Scenario,
    Serve,
    Submit,
    Trace,
    TraceQuery,
    TraceDiff,
    List,
    Lint,
}

use Sub::*;

const SUBS: [Sub; 9] = [
    Run, Scenario, Serve, Submit, Trace, TraceQuery, TraceDiff, List, Lint,
];

impl Sub {
    /// The invocation, operands included, and how many operands it takes
    /// (`usize::MAX` = any number from the minimum up).
    fn shape(self) -> (&'static str, usize, usize) {
        match self {
            Run => ("paper <experiment-id>...|all", 1, usize::MAX),
            Scenario => ("paper scenario <file.json>...", 1, usize::MAX),
            Serve => ("paper serve", 0, 0),
            Submit => ("paper submit <file.json>", 1, 1),
            Trace => ("paper trace <file.ndjson>", 1, 1),
            TraceQuery => ("paper trace query <file.ndjson>", 1, 1),
            TraceDiff => ("paper trace diff <a.ndjson> <b.ndjson>", 2, 2),
            List => ("paper list", 0, 0),
            Lint => ("paper lint", 0, 0),
        }
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// Placeholder of the value the flag takes; `None` for a switch.
    value: Option<&'static str>,
    /// The subcommands the flag applies to.
    subs: &'static [Sub],
    help: &'static str,
    /// The largest count the flag accepts, where it has one.
    max: Option<usize>,
}

const fn flag(
    name: &'static str,
    value: Option<&'static str>,
    subs: &'static [Sub],
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        subs,
        help,
        max: None,
    }
}

/// Every flag of `paper`.
const FLAGS: &[Flag] = &[
    flag("--duration-ms", Some("N"), &[Run], "simulated duration per run (default 5)"),
    flag("--loads", Some("10,50,100"), &[Run], "sweep load points, percentages in (0, 100]"),
    flag("--seed", Some("N"), &[Run], "workload seed"),
    flag("--seeds", Some("A,B,C"), &[Run], "one full sweep per seed (<id>-s<seed>.json)"),
    Flag { max: Some(sim::pool::MAX_JOBS), ..flag("--jobs", Some("N"), &[Run, Scenario, Serve], "worker threads (default: available parallelism)") },
    flag("--json", None, &[Run, Scenario, TraceQuery, List, Lint], "machine-readable output (results/<id>.json for runs)"),
    flag("--no-timing", None, &[Run, Scenario], "omit wall-clock fields from written JSON: the deterministic document"),
    flag("--no-cache", None, &[Scenario], "skip the content-addressed result cache in both directions"),
    flag("--out", Some("DIR"), &[Run, Scenario, Serve], "results directory (default results); the cache lives in DIR/cache"),
    flag("--trace", Some("PATH"), &[Scenario], "also write the flight-recorder NDJSON (one suffixed file per scenario of a batch)"),
    flag("--trace-capacity", Some("N"), &[Scenario, Serve], "flight-recorder ring size of `paper serve` and of --trace runs: a power of two >= 1024 (default 16384)"),
    flag("--addr", Some("HOST:PORT"), &[Serve, Submit], "daemon address (default 127.0.0.1:7470)"),
    flag("--priority", Some("N"), &[Submit], "job priority, higher runs earlier (default 0)"),
    flag("--log-level", Some("error|info|debug"), &[Serve], "daemon log verbosity (default info)"),
    flag("--strict", None, &[Trace], "fail when the recorder dropped events"),
    flag("--kind", Some("NAME"), &[TraceQuery], "keep only events of this kind"),
    flag("--tor", Some("N"), &[TraceQuery], "keep only events mentioning this ToR"),
    flag("--flow", Some("N"), &[TraceQuery], "print this flow's span timeline"),
    flag("--epoch", Some("A..B"), &[TraceQuery], "keep only this inclusive epoch range (or one epoch N)"),
    flag("--top-fct", Some("N"), &[TraceQuery], "report the N slowest completed flows"),
    flag("--context", Some("N"), &[TraceDiff], "aligned lines each side of the divergence (default 3)"),
];

impl Flag {
    /// `--jobs N`, `--json`.
    fn spelled(&self) -> String {
        match self.value {
            Some(value) => format!("{} {value}", self.name),
            None => self.name.to_string(),
        }
    }

    /// The subcommands the flag applies to, for error messages.
    fn applies(&self) -> String {
        let subs: Vec<String> = self
            .subs
            .iter()
            .map(|sub| format!("`{}`", sub.shape().0))
            .collect();
        format!("{} applies to {}", self.name, subs.join(", "))
    }
}

/// One subcommand's usage line(s): its invocation and every flag that
/// applies to it, wrapped at 100 columns.
fn usage_of(sub: Sub) -> String {
    let mut out = format!("  {}", sub.shape().0);
    let mut width = out.len();
    for flag in FLAGS.iter().filter(|f| f.subs.contains(&sub)) {
        let item = format!(" [{}]", flag.spelled());
        if width + item.len() > 100 {
            out.push_str("\n       ");
            width = 7;
        }
        width += item.len();
        out.push_str(&item);
    }
    out
}

/// The usage text: every subcommand with its flags, then every flag with
/// its meaning — all of it read off `FLAGS`.
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for sub in SUBS {
        out.push_str(&usage_of(sub));
        out.push('\n');
    }
    out.push_str("flags:\n");
    for flag in FLAGS {
        out.push_str(&format!("  {:<30} {}", flag.spelled(), flag.help));
        if let Some(max) = flag.max {
            out.push_str(&format!("; at most {max}"));
        }
        out.push('\n');
    }
    out
}

/// Where and in which form a run's result documents are written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Write `<dir>/<id>.json` files (`--json`).
    pub json: bool,
    /// Attach wall-clock metadata to written JSON (`--no-timing` clears
    /// it, yielding the fully deterministic document).
    pub timing: bool,
    /// Output directory (`--out DIR`, default `results`).
    pub dir: PathBuf,
}

/// A parsed `paper` invocation: the subcommand with what it consumes.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run registry experiments: one full sweep per seed.
    Run {
        /// Experiment ids, in request order (`all` expands here).
        ids: Vec<String>,
        /// Harness parameters (the seed is taken from `seeds`).
        args: Args,
        /// Workload seeds (`--seed N` or `--seeds A,B,C`).
        seeds: Vec<u64>,
        /// Worker threads of the sweep engine.
        jobs: usize,
        /// Result documents.
        output: Output,
    },
    /// Run scenario files (a batch dedupes identical runs).
    Scenario {
        /// The scenario files.
        files: Vec<PathBuf>,
        /// Worker threads of the sweep engine.
        jobs: usize,
        /// Consult and populate the result cache (`--no-cache` clears).
        cache: bool,
        /// Write flight-recorder NDJSON here (`--trace PATH`).
        trace: Option<PathBuf>,
        /// Flight-recorder ring capacity per engine.
        trace_capacity: Option<usize>,
        /// Result documents.
        output: Output,
    },
    /// Run the daemon.
    Serve(ServeConfig),
    /// Submit a scenario file to a daemon.
    Submit {
        /// The scenario file.
        file: PathBuf,
        /// Daemon address.
        addr: String,
        /// Job priority (higher runs earlier).
        priority: i64,
    },
    /// Summarize a trace.
    Trace {
        /// The NDJSON trace.
        file: PathBuf,
        /// Fail when the recorder dropped events.
        strict: bool,
    },
    /// Filter and aggregate a trace's events.
    TraceQuery {
        /// The NDJSON trace.
        file: PathBuf,
        /// Filters and aggregations.
        opts: QueryOpts,
    },
    /// Locate the first divergent event of two traces.
    TraceDiff {
        /// The reference trace.
        a: PathBuf,
        /// The trace compared against it.
        b: PathBuf,
        /// Aligned-context lines each side of the divergence.
        context: usize,
    },
    /// Print the registry and the scenario library.
    List {
        /// Machine-readable form.
        json: bool,
    },
    /// Run the determinism linter.
    Lint {
        /// Machine-readable findings document.
        json: bool,
    },
}

/// The flags an invocation gave, with their values (last one wins).
struct Given(Vec<(&'static Flag, String)>);

impl Given {
    fn get(&self, name: &str) -> Option<&str> {
        let found = self.0.iter().rev().find(|(flag, _)| flag.name == name);
        found.map(|(_, value)| value.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The flag's value as a `T`; `what` completes "is not …".
    fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{name}: '{v}' is not {what}"))
        };
        self.get(name).map(parse).transpose()
    }

    /// `--jobs`: a count from one to the flag's ceiling.
    fn jobs(&self) -> Result<usize, String> {
        let max = sim::pool::MAX_JOBS;
        match self.parsed("--jobs", "an integer")? {
            Some(0) => Err("--jobs: need at least 1".into()),
            Some(n) if n > max => Err(format!("--jobs: {n} threads asked; at most {max}")),
            Some(n) => Ok(n),
            None => Ok(sim::pool::default_jobs()),
        }
    }

    fn output(&self) -> Output {
        Output {
            json: self.has("--json"),
            timing: !self.has("--no-timing"),
            dir: PathBuf::from(self.get("--out").unwrap_or("results")),
        }
    }

    fn trace_capacity(&self) -> Result<Option<usize>, String> {
        match self.parsed::<usize>("--trace-capacity", "an integer")? {
            Some(n) if n < MIN_TRACE_CAPACITY || !n.is_power_of_two() => Err(format!(
                "--trace-capacity: {n} must be a power of two ≥ {MIN_TRACE_CAPACITY}"
            )),
            capacity => Ok(capacity),
        }
    }

    fn addr(&self) -> Result<String, String> {
        let addr = self.get("--addr").unwrap_or(DEFAULT_ADDR);
        if !addr.contains(':') {
            return Err(format!("--addr: '{addr}' is not HOST:PORT"));
        }
        Ok(addr.to_string())
    }
}

/// Parse and validate `argv` (without the program name).
pub fn parse(argv: Vec<String>) -> Result<Command, String> {
    let mut operands = Vec::new();
    let mut given = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            operands.push(arg);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|flag| flag.name == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = match flag.value {
            Some(_) => it
                .next()
                .ok_or_else(|| format!("{arg} needs a value ({})", flag.applies()))?,
            None => String::new(),
        };
        given.push((flag, value));
    }
    let (sub, skip) = match operands.first().map(String::as_str) {
        None => return Err("no subcommand or experiment id".into()),
        Some("scenario") => (Scenario, 1),
        Some("serve") => (Serve, 1),
        Some("submit") => (Submit, 1),
        Some("list") => (List, 1),
        Some("lint") => (Lint, 1),
        Some("trace") => match operands.get(1).map(String::as_str) {
            Some("query") => (TraceQuery, 2),
            Some("diff") => (TraceDiff, 2),
            _ => (Trace, 1),
        },
        Some(_) => (Run, 0),
    };
    operands.drain(..skip);
    let (invocation, min, max) = sub.shape();
    if let Some((flag, _)) = given.iter().find(|(flag, _)| !flag.subs.contains(&sub)) {
        return Err(format!("{}, not to `{invocation}`", flag.applies()));
    }
    if operands.len() < min || operands.len() > max {
        return Err(format!(
            "`{invocation}` got {} operand(s); usage:\n{}",
            operands.len(),
            usage_of(sub)
        ));
    }
    let given = Given(given);
    let path = |i: usize| PathBuf::from(&operands[i]);
    Ok(match sub {
        Run => run_command(&operands, &given)?,
        Scenario => {
            let (trace, trace_capacity) = (given.get("--trace"), given.trace_capacity()?);
            if trace_capacity.is_some() && trace.is_none() {
                return Err(
                    "--trace-capacity sizes the recorder of a `--trace` run: give --trace PATH too"
                        .into(),
                );
            }
            Command::Scenario {
                files: operands.iter().map(PathBuf::from).collect(),
                jobs: given.jobs()?,
                cache: !given.has("--no-cache"),
                trace: trace.map(PathBuf::from),
                trace_capacity,
                output: given.output(),
            }
        }
        Serve => Command::Serve(ServeConfig {
            addr: given.addr()?,
            jobs: given.jobs()?,
            out: given.output().dir,
            log_level: match given.get("--log-level") {
                Some(level) => LogLevel::parse(level).map_err(|e| format!("--log-level: {e}"))?,
                None => LogLevel::Info,
            },
            trace_capacity: given.trace_capacity()?,
            ..ServeConfig::default()
        }),
        Submit => Command::Submit {
            file: path(0),
            addr: given.addr()?,
            priority: given.parsed("--priority", "an integer")?.unwrap_or(0),
        },
        Trace => Command::Trace {
            file: path(0),
            strict: given.has("--strict"),
        },
        TraceQuery => Command::TraceQuery {
            file: path(0),
            opts: QueryOpts {
                kind: given.get("--kind").map(String::from),
                tor: given.parsed("--tor", "a ToR index")?,
                flow: given.parsed("--flow", "a flow id")?,
                epochs: given.get("--epoch").map(parse_epoch_range).transpose()?,
                top_fct: match given.parsed("--top-fct", "an integer")? {
                    Some(0) => return Err("--top-fct: need at least 1 flow".into()),
                    top => top,
                },
                json: given.has("--json"),
            },
        },
        TraceDiff => Command::TraceDiff {
            a: path(0),
            b: path(1),
            context: given
                .parsed("--context", "an integer")?
                .unwrap_or(DEFAULT_DIFF_CONTEXT),
        },
        List => Command::List {
            json: given.has("--json"),
        },
        Lint => Command::Lint {
            json: given.has("--json"),
        },
    })
}

/// `paper <experiment-id>...`: ids against the registry, harness flags.
fn run_command(operands: &[String], given: &Given) -> Result<Command, String> {
    let mut ids = Vec::new();
    for id in operands {
        if id == "all" {
            ids.extend(EXPERIMENTS.iter().map(|e| e.id().to_string()));
        } else if find_experiment(id).is_some() {
            ids.push(id.clone());
        } else {
            return Err(format!("unknown experiment '{id}' — try `paper list`"));
        }
    }
    let mut args = Args::default();
    if let Some(ms) = given.parsed::<f64>("--duration-ms", "a number")? {
        if !ms.is_finite() || ms <= 0.0 {
            return Err(format!("--duration-ms: {ms} must be > 0"));
        }
        args.duration = (ms * 1e6) as u64;
    }
    if let Some(loads) = given.get("--loads") {
        args.loads = loads.split(',').map(parse_load).collect::<Result<_, _>>()?;
    }
    let seeds = match (given.get("--seeds"), given.parsed("--seed", "an integer")?) {
        (Some(list), _) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--seeds: '{s}' is not an integer"))
            })
            .collect::<Result<_, _>>()?,
        (None, Some(seed)) => vec![seed],
        (None, None) => vec![args.seed],
    };
    Ok(Command::Run {
        ids,
        args,
        seeds,
        jobs: given.jobs()?,
        output: given.output(),
    })
}

/// Parse one `--loads` entry: a percentage in (0, 100], returned as a
/// fraction.
fn parse_load(s: &str) -> Result<f64, String> {
    let pct: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("--loads: '{s}' is not a number"))?;
    if !pct.is_finite() || pct <= 0.0 || pct > 100.0 {
        return Err(format!(
            "--loads: {pct}% is out of range — loads are percentages in (0, 100]"
        ));
    }
    Ok(pct / 100.0)
}

/// Parse an `--epoch` filter: inclusive `A..B`, or a single epoch `N`.
fn parse_epoch_range(s: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = s.split_once("..").unwrap_or((s, s));
    let parse = |part: &str| {
        part.parse::<u64>()
            .map_err(|_| format!("--epoch: '{s}' is not an epoch N or a range A..B"))
    };
    let (lo, hi) = (parse(lo)?, parse(hi)?);
    if lo > hi {
        return Err(format!("--epoch: {lo}..{hi} is an empty range"));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Parse a command line given as one string, split at spaces.
    fn parse_line(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from).collect())
    }

    /// Every flag against every subcommand: accepted exactly where the
    /// table says, rejected elsewhere with the flag and the subcommands it
    /// does apply to in the message.
    #[test]
    fn a_flag_is_accepted_exactly_where_the_table_says() {
        let operands = |sub: Sub| match sub {
            Run => "fig9",
            Scenario => "scenario a.json --trace t.ndjson",
            Serve => "serve",
            Submit => "submit a.json",
            Trace => "trace t.ndjson",
            TraceQuery => "trace query t.ndjson",
            TraceDiff => "trace diff a.ndjson b.ndjson",
            List => "list",
            Lint => "lint",
        };
        assert_eq!(FLAGS.len(), 21);
        for flag in FLAGS {
            let value = match (flag.value, flag.name) {
                (None, _) => "",
                (_, "--addr") => "h:1",
                (_, "--trace-capacity") => "4096",
                (_, "--log-level") => "debug",
                (_, "--trace") => "u.ndjson",
                _ => "7",
            };
            for sub in SUBS {
                let line = format!("{} {} {value}", operands(sub), flag.name);
                match parse_line(&line) {
                    Ok(_) => assert!(flag.subs.contains(&sub), "`{line}` was accepted"),
                    Err(error) => {
                        assert!(!flag.subs.contains(&sub), "`{line}`: {error}");
                        assert!(error.starts_with(&flag.applies()), "`{line}`: {error}");
                        assert!(error.contains(sub.shape().0), "`{line}`: {error}");
                    }
                }
            }
        }
    }

    fn assert_rejected(cases: &[(&str, &str)]) {
        for (line, needle) in cases {
            let error = parse_line(line).unwrap_err();
            assert!(error.contains(needle), "`{line}`: {error}");
        }
    }

    /// Invocations that used to be accepted with the flag silently ignored,
    /// or with the flag token taken for the file.
    #[test]
    fn ignored_flags_and_flags_as_operands_are_errors() {
        assert_rejected(&[
            ("lint --jobs 3", "--jobs applies to `paper <experiment-id>"),
            ("list --no-cache", "--no-cache applies to `paper scenario"),
            (
                "trace t.ndjson --jobs 2",
                "`paper serve`, not to `paper trace",
            ),
            ("fig9 --no-cache", "--no-cache applies to `paper scenario"),
            ("serve --json", "`paper lint`, not to `paper serve`"),
            (
                "scenario --json",
                "`paper scenario <file.json>...` got 0 operand(s)",
            ),
            (
                "submit --addr",
                "--addr needs a value (--addr applies to `paper serve`",
            ),
            (
                "scenario a.json --seed 3",
                "--seed applies to `paper <experiment-id>",
            ),
            ("scenario a.json --trace-capacity 4096", "give --trace"),
            ("--nope", "unknown flag"),
            ("", "no subcommand"),
            ("--json", "no subcommand"),
        ]);
    }

    /// Subcommands take the operands their usage line shows, no others.
    #[test]
    fn operand_counts_are_checked() {
        for line in [
            "serve fig9",
            "list fig9",
            "lint serve",
            "submit",
            "submit a.json b.json",
            "scenario",
            "trace",
            "trace query",
            "trace diff a.ndjson",
            "trace a.ndjson b.ndjson",
        ] {
            assert_rejected(&[(line, "operand(s); usage:")]);
        }
        assert_rejected(&[
            ("fig9 scenario x.json", "unknown experiment 'scenario'"),
            ("fig99", "unknown experiment 'fig99'"),
        ]);
    }

    #[test]
    fn values_are_validated() {
        assert_rejected(&[
            ("fig9 --jobs 0", "at least 1"),
            ("fig9 --jobs", "needs a value"),
            ("fig9 --jobs x", "not an integer"),
            ("fig9 --duration-ms -1", "> 0"),
            // 0 would yield an empty trace and NaN ratio cells.
            ("fig9 --duration-ms 0", "> 0"),
            ("fig9 --duration-ms x", "not a number"),
            ("fig9 --seeds 1,x", "not an integer"),
            ("fig9 --loads 0", "out of range"),
            ("fig9 --loads 150", "out of range"),
            ("fig9 --loads 50,-10", "out of range"),
            ("fig9 --loads abc", "not a number"),
            ("serve --addr noport", "not HOST:PORT"),
            ("serve --log-level loud", "unknown log level"),
            ("serve --trace-capacity 3000", "power of two"),
            ("serve --trace-capacity 512", "power of two"),
            ("trace query t --epoch 9..2", "empty range"),
            ("trace query t --epoch x", "not an epoch"),
            ("trace query t --top-fct 0", "at least 1"),
            ("trace query t --tor x", "not a ToR index"),
            ("submit a.json --priority x", "not an integer"),
        ]);
    }

    /// `--jobs` above `sim::pool::MAX_JOBS` is refused while parsing, on
    /// every subcommand that takes it, before any worker could start; the
    /// ceiling itself is accepted, and the usage states it.
    #[test]
    fn jobs_above_the_ceiling_are_refused() {
        let max = sim::pool::MAX_JOBS;
        for sub in ["fig9", "scenario a.json", "serve"] {
            for jobs in [max + 1, 100_000] {
                let error = parse_line(&format!("{sub} --jobs {jobs}")).unwrap_err();
                assert!(error.contains(&format!("at most {max}")), "{sub}: {error}");
            }
            assert!(parse_line(&format!("{sub} --jobs {max}")).is_ok(), "{sub}");
        }
        assert!(usage().contains(&format!("; at most {max}")));
    }

    /// The engines own no threads, so there is no intra-run worker count
    /// to ask for.
    #[test]
    fn workers_is_an_unknown_flag() {
        for line in [
            "fig9 --workers 2",
            "scenario a.json --workers 2",
            "serve --workers 2",
        ] {
            assert_rejected(&[(line, "unknown flag '--workers'")]);
        }
    }

    #[test]
    fn run_parses_its_flags_anywhere_on_the_line() {
        let line = "--duration-ms 0.5 fig9 --loads 0.1,50,100 table2 --jobs 2 \
                    --json --out results/current --seed 7";
        let Ok(Command::Run {
            ids,
            args,
            seeds,
            jobs,
            output,
        }) = parse_line(line)
        else {
            panic!("experiment ids make a run")
        };
        assert_eq!(ids, ["fig9", "table2"]);
        assert_eq!(args.duration, 500_000);
        assert_eq!(args.loads, [0.001, 0.50, 1.00]);
        assert_eq!((seeds, jobs), (vec![7], 2));
        assert!(output.json && output.timing);
        assert_eq!(output.dir, Path::new("results/current"));

        let Ok(Command::Run {
            ids, args, seeds, ..
        }) = parse_line("all --seeds 1,2,3")
        else {
            panic!("`all` is a run")
        };
        assert_eq!(ids.len(), EXPERIMENTS.len());
        assert_eq!(
            (seeds, args.duration),
            (vec![1, 2, 3], Args::default().duration)
        );
        let Ok(Command::Run { seeds, .. }) = parse_line("fig9") else {
            panic!("a run")
        };
        assert_eq!(seeds, [bench::runs::SEED]);
    }

    #[test]
    fn scenario_takes_a_batch_and_its_own_flags() {
        let line = "scenario a.json b.json --no-timing --no-cache --jobs 4 \
                    --trace t.ndjson --trace-capacity 4096";
        let Ok(Command::Scenario {
            files,
            jobs,
            cache,
            trace,
            trace_capacity,
            output,
        }) = parse_line(line)
        else {
            panic!("scenario")
        };
        assert_eq!(files, [Path::new("a.json"), Path::new("b.json")]);
        assert_eq!((jobs, cache), (4, false));
        assert_eq!(trace.as_deref(), Some(Path::new("t.ndjson")));
        assert_eq!(trace_capacity, Some(4096));
        assert!(!output.json && !output.timing);
        let Ok(Command::Scenario { cache, output, .. }) = parse_line("scenario a.json --json")
        else {
            panic!("scenario")
        };
        assert!(cache && output.timing, "timing and cache default on");
    }

    #[test]
    fn serve_and_submit_parse_into_their_types() {
        let line = "serve --addr 0.0.0.0:9000 --jobs 3 --log-level debug --trace-capacity 1024";
        let Ok(Command::Serve(config)) = parse_line(line) else {
            panic!("serve")
        };
        assert_eq!((config.addr.as_str(), config.jobs), ("0.0.0.0:9000", 3));
        assert_eq!(config.log_level, LogLevel::Debug);
        assert_eq!(config.trace_capacity, Some(1024));
        let Ok(Command::Serve(config)) = parse_line("serve") else {
            panic!("serve")
        };
        assert_eq!(config.log_level, LogLevel::Info, "defaults to info");
        assert_eq!(config.addr, DEFAULT_ADDR);
        let Ok(Command::Submit {
            file,
            addr,
            priority,
        }) = parse_line("submit scenarios/ci_smoke.json --priority -2")
        else {
            panic!("submit")
        };
        assert_eq!(file, Path::new("scenarios/ci_smoke.json"));
        assert_eq!((addr.as_str(), priority), (DEFAULT_ADDR, -2));
    }

    #[test]
    fn trace_subcommands_parse() {
        let Ok(Command::Trace { file, strict }) = parse_line("trace r.ndjson --strict") else {
            panic!("trace summary")
        };
        assert!(strict && file == Path::new("r.ndjson"));
        let line = "trace query t.ndjson --kind flow_grant --tor 3 --flow 17 --epoch 10..20 \
                    --top-fct 5 --json";
        let Ok(Command::TraceQuery { file, opts }) = parse_line(line) else {
            panic!("trace query")
        };
        assert_eq!(file, Path::new("t.ndjson"));
        assert_eq!(opts.kind.as_deref(), Some("flow_grant"));
        assert_eq!((opts.tor, opts.flow), (Some(3), Some(17)));
        assert_eq!((opts.epochs, opts.top_fct), (Some((10, 20)), Some(5)));
        assert!(opts.json);
        // A bare epoch is the single-epoch range.
        let Ok(Command::TraceQuery { opts, .. }) = parse_line("trace query t.ndjson --epoch 7")
        else {
            panic!("trace query")
        };
        assert_eq!(opts.epochs, Some((7, 7)));
        let Ok(Command::TraceDiff { a, b, context }) = parse_line("trace diff a b") else {
            panic!("trace diff")
        };
        assert_eq!((a.as_path(), b.as_path()), (Path::new("a"), Path::new("b")));
        assert_eq!(context, DEFAULT_DIFF_CONTEXT);
        let Ok(Command::TraceDiff { context, .. }) = parse_line("trace diff a b --context 7")
        else {
            panic!("trace diff")
        };
        assert_eq!(context, 7);
    }

    /// README's CLI section is the generated usage, verbatim.
    #[test]
    fn readme_carries_the_generated_usage() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&usage()),
            "README \"The sweep CLI\" must contain this text:\n{}",
            usage()
        );
    }
}
