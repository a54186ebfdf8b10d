//! End-to-end crash flight recorder: a panicking suite worker must
//! leave a structured, validating black-box dump, and the installed
//! panic hook must dump on any uncaught panic.
//!
//! The recorder (dump path, panic hook, per-thread rings) is
//! process-global, so this binary holds exactly one `#[test]`: the
//! dumps it inspects stay attributable to the incidents it stages.

use waymem::obs;
use waymem::prelude::*;

#[test]
fn worker_panic_and_panic_hook_both_dump_a_valid_black_box() {
    let dir = std::env::temp_dir().join(format!("waymem-flight-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dump = dir.join("flight.json");
    obs::flight::set_dump_path(Some(dump.clone()));

    // Stage 1: a worker that dies inside the suite's isolation boundary.
    // catch_worker converts the panic to RunError::Worker and, on the
    // way, dumps the black box.
    let outcome: Result<(), RunError> =
        catch_worker(|| panic!("flight-recorder e2e: staged worker death"));
    match outcome {
        Err(RunError::Worker { message }) => {
            assert!(message.contains("staged worker death"), "{message}");
        }
        other => panic!("expected RunError::Worker, got {other:?}"),
    }
    let text = std::fs::read_to_string(&dump).expect("worker panic dumped a black box");
    let summary = obs::flight::validate_dump(&text).expect("dump validates");
    assert_eq!(summary.reason, "suite.worker_panic");
    assert!(
        summary.has_event("suite.worker_panic"),
        "no suite.worker_panic among {:?}",
        summary.names
    );
    // The embedded metrics snapshot is part of the validate_dump
    // contract; spot-check it actually carries this process's state.
    let root = obs::json::parse(&text).expect("dump parses");
    assert!(root.get("metrics").and_then(|m| m.get("counters")).is_some());

    // Stage 2: the panic hook. Install it, then let an uncaught panic
    // unwind a spawned thread — the hook must record the panic site and
    // overwrite the dump with reason "panic" before the thread dies.
    std::fs::remove_file(&dump).expect("reset dump");
    obs::flight::install_panic_hook();
    let joined = std::thread::Builder::new()
        .name("flight-e2e-crasher".into())
        .spawn(|| panic!("flight-recorder e2e: staged uncaught panic"))
        .expect("spawns")
        .join();
    assert!(joined.is_err(), "the staged panic must propagate");
    let text = std::fs::read_to_string(&dump).expect("panic hook dumped a black box");
    let summary = obs::flight::validate_dump(&text).expect("hook dump validates");
    assert_eq!(summary.reason, "panic");
    assert!(summary.has_event("panic"), "no panic event among {:?}", summary.names);

    obs::flight::set_dump_path(None);
    std::fs::remove_dir_all(&dir).ok();
}
