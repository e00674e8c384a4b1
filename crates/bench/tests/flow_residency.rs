//! A compiled scenario keeps its recipe, not its flows: every execution
//! path — `execute_with_progress`, `execute_traced` and `run_batch` —
//! makes the flows for itself and drops them when it returns, so what a
//! caller still holds afterwards is the spec, the recipe and two recorded
//! counts. A counting allocator measures what dropping the compiled
//! scenarios frees, which is exactly what they held.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use bench::scenario::{
    compile, execute_traced, execute_with_progress, parse_scenario, run_batch, CompiledScenario,
};
use workload::{Flow, FlowTrace};

/// The system allocator, counting the bytes this thread asks it for and
/// the bytes it hands back (each test runs on a thread of its own).
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<usize>>, layout: Layout) {
    let _ = counter.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
}

// SAFETY: every request is passed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with
// no destructor and no allocation of their own, and `try_with` skips the
// count once a thread's locals are gone. `realloc` keeps its default form,
// which goes through `alloc` and `dealloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&ALLOCATED, layout);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(&ALLOCATED, layout);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&FREED, layout);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread asked the allocator for while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Bytes dropping `value` hands back: what it held.
fn held_by<T>(value: T) -> usize {
    let before = FREED.with(Cell::get);
    drop(value);
    FREED.with(Cell::get) - before
}

const TORS: usize = 64;

/// The bytes of the scenario's trace: one flow per ordered pair.
const TRACE_BYTES: usize = TORS * (TORS - 1) * std::mem::size_of::<Flow>();

fn all_to_all() -> CompiledScenario {
    let text = format!(
        r#"{{"name": "resident", "topology": "parallel", "tors": {TORS}, "ports": 8,
            "engines": ["negotiator"],
            "phases": [{{"workload": "all_to_all", "flow_bytes": 1000, "epochs": [0, 10]}}]}}"#
    );
    compile(parse_scenario(&text).unwrap(), Path::new(".")).unwrap()
}

/// Flow count and offered bytes read through `Deref` — which makes and
/// keeps the trace — from a fresh compile of the same text.
fn forced_counts() -> (usize, u64) {
    let forced = all_to_all();
    let trace: &FlowTrace = &forced.trace;
    assert_eq!(trace.len(), TORS * (TORS - 1));
    (trace.len(), trace.total_bytes())
}

/// After an execution ran the scenarios, each answers its counts without
/// allocating, and dropping them frees less than one trace.
fn check_after(path: &str, scenarios: Vec<CompiledScenario>) {
    let expected = forced_counts();
    for c in &scenarios {
        let (counts, bytes) = allocated_by(|| (c.trace.flow_count(), c.trace.total_bytes()));
        assert_eq!(counts, expected, "{path}");
        assert_eq!(bytes, 0, "{path}: reading the counts allocated {bytes} B");
    }
    let held = held_by(scenarios);
    assert!(
        held < TRACE_BYTES,
        "{path}: the compiled scenarios still hold {held} B (one trace is {TRACE_BYTES} B)"
    );
}

#[test]
fn execute_with_progress_drops_its_flows() {
    let c = all_to_all();
    let report = execute_with_progress(&c, None, 1);
    assert!(report
        .rendered
        .contains(&format!("{} flows", TORS * (TORS - 1))));
    check_after("execute_with_progress", vec![c]);
}

#[test]
fn execute_traced_drops_its_flows() {
    let c = all_to_all();
    let (_, trace) = execute_traced(&c, None, None);
    assert!(!trace.is_empty());
    check_after("execute_traced", vec![c]);
}

#[test]
fn run_batch_drops_its_flows() {
    let copies = vec![all_to_all(), all_to_all()];
    let outcome = run_batch(&copies, 1);
    assert_eq!(outcome.coalesced, 1);
    assert_eq!(outcome.reports[0].rendered, outcome.reports[1].rendered);
    check_after("run_batch", copies);
}

/// Counts read before any run are made by a synthesis that keeps nothing
/// but the counts.
#[test]
fn counts_of_a_scenario_that_never_ran_leave_the_flows_unmade() {
    let c = all_to_all();
    let counts = (c.trace.flow_count(), c.trace.total_bytes());
    assert_eq!(counts, forced_counts());
    let (again, bytes) = allocated_by(|| (c.trace.flow_count(), c.trace.total_bytes()));
    assert_eq!((again, bytes), (counts, 0));
    let held = held_by(c);
    assert!(
        held < TRACE_BYTES,
        "reading the counts kept the trace: {held} B held (one trace is {TRACE_BYTES} B)"
    );
}
