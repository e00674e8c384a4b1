// Fixture: the D003 exemption. This snippet is scanned under several
// paths — as `crates/sim/src/pool.rs` (the one home of threads, where
// they are the point) it must come back clean; as any other engine file,
// a row-sharding module of an epoch engine included, it is two findings.
fn shard_workers() {
    let handle = std::thread::spawn(worker);
    let (tx, rx) = std::sync::mpsc::channel();
    handle.join().unwrap();
}
