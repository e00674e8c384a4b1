//! What every workload shares: the run's arguments, its verdict, the
//! scenario templates, a scratch directory, and the cold child processes
//! that measure set-up.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use metrics::Json;
use scenario::hash::StableHasher;

use crate::names::Values;

/// One run's arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The benchmark's directory (templates in, `out/` under it).
    pub root: PathBuf,
    /// As early in `main` as possible: set-up time counts from here.
    pub started: Instant,
}

impl Ctx {
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("out")
    }
}

/// What a run found: the operations it checked, the checks that failed,
/// the metric values, and lines for a human (sample counts, quartiles).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub values: Values,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.set(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A workload's scenario template. The program under test only ever sees
/// the text generated from it for a seed.
pub struct Template(Json);

impl Template {
    pub fn load(ctx: &Ctx) -> Result<Template, String> {
        let path = ctx
            .root
            .join("workloads")
            .join(format!("{}.json", ctx.workload));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Template::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Template, String> {
        let doc = Json::parse(text)?;
        match doc.get("seed") {
            Some(_) => Ok(Template(doc)),
            None => Err("a template needs a top-level \"seed\" to substitute".to_string()),
        }
    }

    /// The scenario text for `seed`.
    pub fn text(&self, seed: u64) -> String {
        let mut doc = self.0.clone();
        if let Json::Obj(members) = &mut doc {
            for (key, value) in members.iter_mut() {
                if key == "seed" {
                    *value = Json::UInt(seed);
                }
            }
        }
        doc.render()
    }
}

/// Where errors in generated scenario text are said to come from.
pub fn origin() -> &'static Path {
    Path::new("<benchmark>")
}

/// A directory under `out/` that is removed when the run ends, however it
/// ends. `what` tells one process's scratch directories apart.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(ctx: &Ctx, what: &str) -> Result<Scratch, String> {
        let dir = ctx
            .out_dir()
            .join(format!("tmp-{}-{what}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Digest of result documents, so a child process can report which bytes
/// it produced without sending them.
pub fn doc_hash<'a>(docs: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = StableHasher::new();
    for doc in docs {
        h.write_str(doc);
    }
    h.finish()
}

/// One cold set-up: process start to the first result, and what it made.
pub struct Cold {
    pub setup_s: f64,
    /// The same on the wall clock, where `setup_s` is calibrated.
    pub raw_s: f64,
    pub doc_hash: u64,
}

impl Cold {
    pub fn to_line(&self) -> String {
        let mut o = Json::object();
        o.push("setup_s", self.setup_s)
            .push("raw_s", self.raw_s)
            .push("doc_hash", self.doc_hash);
        o.render_compact()
    }

    fn from_line(line: &str) -> Option<Cold> {
        let doc = Json::parse(line).ok()?;
        Some(Cold {
            setup_s: doc.get("setup_s")?.as_f64()?,
            raw_s: doc.get("raw_s")?.as_f64()?,
            doc_hash: doc.get("doc_hash")?.as_u64()?,
        })
    }
}

/// Set the workload up again in a fresh process, so that every sample of
/// `setup_s` is as cold as a user's first run. With `pass_seed` the child
/// instead makes one offline pass of the workload's template at that seed,
/// whatever the workload. The child ends before this returns.
pub fn cold_child(ctx: &Ctx, pass_seed: Option<u64>) -> Result<Cold, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "cold",
            "--workload",
            &ctx.workload,
            "--seed",
            &ctx.seed.to_string(),
            "--root",
        ])
        .arg(&ctx.root);
    if let Some(seed) = pass_seed {
        command.args(["--pass-seed", &seed.to_string()]);
    }
    let out = command
        .output()
        .map_err(|e| format!("starting a cold child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(Cold::from_line) {
        Some(cold) if out.status.success() => Ok(cold),
        _ => Err(format!(
            "cold child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Median set-up time over this process's own cold start and two more in
/// fresh processes; each child must have produced the same bytes.
pub fn setup_median(ctx: &Ctx, own: &Cold, out: &mut Outcome) -> f64 {
    let mut samples = vec![own.setup_s];
    for _ in 0..2 {
        match cold_child(ctx, None) {
            Ok(cold) => {
                out.check(cold.doc_hash == own.doc_hash, || {
                    "a fresh process produced different result bytes".to_string()
                });
                samples.push(cold.setup_s);
            }
            Err(e) => out.check(false, || e),
        }
    }
    out.note(format!("setup_s samples {samples:.4?} (3 cold processes)"));
    crate::stats::median(&samples)
}
