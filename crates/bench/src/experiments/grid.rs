//! Grid-shaped experiments as values.
//!
//! Most of the paper's load sweeps are the same experiment with different
//! numbers in it: for every offered load, generate one Poisson trace, play
//! it through a list of systems, and print one table per metric with a row
//! per load and a column per system. A [`Grid`] is that list written down —
//! columns (run label, table header, sweep parameter, [`System`]) and
//! tables (title, [`Cell`]) — and [`GridExperiment`] puts one behind the
//! [`Experiment`] trait, so the spec expansion and the rendering exist
//! once. Experiments whose runs are not "a trace per load through a
//! configured engine" stay closures; [`matrix_table`] is the part of the
//! rendering they share.

use std::sync::Arc;

use super::{Args, Experiment};
use crate::runs::background;
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, RunReport, Table};
use negotiator::{NegotiatorConfig, SimOptions};
use oblivious::ObliviousConfig;
use scenario::System;
use topology::{NetworkConfig, TopologyKind};
use workload::FlowSizeDist;

/// What a table shows of each run.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// 99th-percentile mice FCT in ms.
    MiceP99Ms,
    /// 99th-percentile mice FCT in µs.
    MiceP99Us,
    /// Goodput normalized to the host aggregate.
    Goodput,
    /// `99p mice FCT (µs)/goodput (%)` (Tables 3–6).
    MiceP99UsAndGoodput,
}

impl Cell {
    fn render(self, rep: &mut RunReport) -> String {
        match self {
            Cell::MiceP99Ms => report::ms(rep.mice.p99_ns()),
            Cell::MiceP99Us => report::us(rep.mice.p99_ns()),
            Cell::Goodput => format!("{:.3}", rep.goodput.normalized()),
            Cell::MiceP99UsAndGoodput => format!(
                "{}/{}",
                report::us(rep.mice.p99_ns()),
                report::pct(rep.goodput.normalized())
            ),
        }
    }
}

/// One system of a grid: a column of every table.
#[derive(Debug, Clone)]
pub struct Column {
    /// Run label (`system` in the results document).
    label: &'static str,
    /// Column header in the tables.
    header: &'static str,
    /// The sweep parameter this column is a point of, if any.
    param: Option<(&'static str, f64)>,
    /// The engine, fabric included.
    system: System,
}

impl Column {
    /// A column headed by its run label, with no sweep parameter.
    pub fn new(label: &'static str, system: System) -> Self {
        Column {
            label,
            header: label,
            param: None,
            system,
        }
    }

    /// Head the column `header` instead of its run label.
    pub fn header(self, header: &'static str) -> Self {
        Column { header, ..self }
    }

    /// Make the column the point `value` of the sweep parameter `name`.
    pub fn param(self, name: &'static str, value: f64) -> Self {
        Column {
            param: Some((name, value)),
            ..self
        }
    }
}

/// NegotiaToR at the paper's defaults on `kind` over `net`.
pub fn nego(kind: TopologyKind, net: &NetworkConfig) -> System {
    nego_with(kind, net, |_, _| {})
}

/// [`nego`] with `tweak` applied to the configuration and the options.
pub fn nego_with(
    kind: TopologyKind,
    net: &NetworkConfig,
    tweak: impl FnOnce(&mut NegotiatorConfig, &mut SimOptions),
) -> System {
    let mut cfg = NegotiatorConfig::paper_default(net.clone());
    let mut opts = SimOptions::default();
    tweak(&mut cfg, &mut opts);
    System::Negotiator(kind, cfg, opts)
}

/// The traffic-oblivious baseline (thin-clos, as in the paper) over `net`.
pub fn oblv(net: &NetworkConfig, priority_queues: bool) -> System {
    let cfg = ObliviousConfig {
        priority_queues,
        ..ObliviousConfig::paper_default(net.clone())
    };
    System::Oblivious(TopologyKind::ThinClos, cfg)
}

/// The three systems of the burst figures' legends (7(a), 7(b), 13(a)).
pub fn three_systems(net: &NetworkConfig) -> [(&'static str, System); 3] {
    [
        ("nego/parallel", nego(TopologyKind::Parallel, net)),
        ("nego/thin-clos", nego(TopologyKind::ThinClos, net)),
        ("oblivious/thin-clos", oblv(net, true)),
    ]
}

/// A load sweep: one run per (load, column), one table per metric.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Flow-size distribution of the Poisson background.
    pub dist: FlowSizeDist,
    /// The fabric the workload is sized for. Columns may run fabrics that
    /// differ in uplink speed; the flows offered are the same for all.
    pub net: NetworkConfig,
    /// The systems, in column order.
    pub columns: Vec<Column>,
    /// `(title, cell)` per table, in print order.
    pub tables: Vec<(String, Cell)>,
}

/// A [`Grid`] in the registry. The grid is built on demand — it holds
/// full engine configurations, which are not `const`.
pub struct GridExperiment {
    /// Registry id.
    pub id: &'static str,
    /// The paper artifact this reproduces.
    pub artifact: &'static str,
    /// The grid.
    pub grid: fn() -> Grid,
}

impl Experiment for GridExperiment {
    fn id(&self) -> &'static str {
        self.id
    }
    fn artifact(&self) -> &'static str {
        self.artifact
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let grid = (self.grid)();
        let cells: Vec<Cell> = grid.tables.iter().map(|&(_, cell)| cell).collect();
        let mut specs = Vec::new();
        for &load in &args.loads {
            let trace = Arc::new(background(
                grid.dist.clone(),
                load,
                &grid.net,
                args.duration,
                args.seed,
            ));
            for col in &grid.columns {
                let mut meta =
                    RunMeta::new(self.id, specs.len(), col.label, args.seed, args.duration)
                        .load(load);
                meta.param = col.param;
                let (system, trace, cells) =
                    (col.system.clone(), Arc::clone(&trace), cells.clone());
                let duration = args.duration;
                specs.push(RunSpec::new(meta, move || {
                    let mut rep = system.build().run(&trace, duration);
                    let cells = cells.iter().map(|cell| cell.render(&mut rep)).collect();
                    RunMetrics::with_report(Rendered::Cells(cells), rep)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        let grid = (self.grid)();
        let mut headers = vec!["load"];
        headers.extend(grid.columns.iter().map(|col| col.header));
        let tables: Vec<String> = grid
            .tables
            .iter()
            .enumerate()
            .map(|(cell, (title, _))| {
                matrix_table(title, &headers, results, cell, |_, r| report::pct(r.load()))
            })
            .collect();
        tables.join("\n")
    }
}

/// One table over a run matrix in row-major spec order: every
/// `headers.len() − 1` consecutive results make a row, headed by
/// `head(row index, the row's first result)` and filled with each
/// result's `cell`-th cell.
pub fn matrix_table(
    title: &str,
    headers: &[&str],
    results: &[RunResult],
    cell: usize,
    head: impl Fn(usize, &RunResult) -> String,
) -> String {
    let mut table = Table::new(title, headers);
    for (row, chunk) in results.chunks(headers.len() - 1).enumerate() {
        let mut cells = vec![head(row, &chunk[0])];
        cells.extend(chunk.iter().map(|r| r.cells()[cell].clone()));
        table.row(cells);
    }
    table.render()
}
