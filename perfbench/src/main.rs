//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a few human-readable lines, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits 0 after a completed run — the verdict is in
//! `correct` — and 2 on a usage error. Writes only under `.perfbench/` in
//! the current directory (span files, the isolated sweep's journals).

use perfbench::harness::{self, Options};
use perfbench::workloads::{isolated_sweep, Env, Size, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--toy]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

/// Serves every thread of this process from one glibc malloc arena. With
/// one arena per thread (glibc's default), which arena ends up holding the
/// native backend's per-thread allocations depends on thread timing, and
/// the process's peak resident memory on native-large jumped between about
/// 56 and 73 MiB from run to run; with one arena it stays within a few
/// percent. Must run before any thread is spawned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    /// glibc's `M_ARENA_MAX` parameter (malloc.h).
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it takes
    // two plain integers, and no other thread exists yet to race with it.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };

    if let Some(key) = get("--worker-cell") {
        // Sweep-worker mode for the isolated-sweep workload.
        let scale = get("--worker-scale").and_then(|s| s.parse().ok());
        let seed = get("--seed").and_then(|s| s.parse().ok());
        let (Some(scale), Some(seed)) = (scale, seed) else {
            return usage("--worker-cell needs --worker-scale and --seed");
        };
        return match isolated_sweep::worker_main(key, scale, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => usage(&e),
        };
    }

    let Some(workload) = get("--workload") else {
        return usage("missing --workload");
    };
    if !NAMES.contains(&workload) {
        return usage(&format!("unknown workload '{workload}'"));
    }
    let Some(seed) = get("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed needs a non-negative integer");
    };
    let Some(seconds) = get("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("--seconds needs a positive number");
    };
    let trace = match get("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace takes 0 or 1, not '{other}'")),
    };
    let size = if args.iter().any(|a| a == "--toy") {
        Size::Toy
    } else {
        Size::Full
    };
    let scratch = PathBuf::from(".perfbench");
    let worker_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot locate this executable: {e}")),
    };
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        size,
        env: Env {
            scratch: scratch.clone(),
            worker_exe,
        },
    };
    let report = match harness::run(&opts) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(spans) = &report.spans {
        let path = scratch.join(format!("spans-{workload}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(&scratch).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
