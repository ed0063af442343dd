//! `isolated-sweep`: many tiny sweep cells (the `TestTiny` preset at a small
//! scale) through `ecl-bench`'s subprocess executor — one worker process per
//! cell via `isolate::run_worker`, each result appended to a fresh fsync'd
//! journal, the journal loaded back and exported as a `BENCH_RESULTS`
//! report. This benchmark's own executable is the worker (`--worker-cell`).

use super::{Checks, Env, Pass, Size, Workload};
use crate::trace::Tracer;
use ecl_bench::export::Json;
use ecl_bench::isolate::{run_worker, worker_doc, IsolateSpec, WorkerVerdict};
use ecl_bench::journal::{digest_of, identity_json, Journal, JournalWriter};
use ecl_bench::{
    cell_json, failure_json, graph_seed, set_cell_keys, table_from_records, BenchReport, Matrix,
};
use ecl_core::common::Digest;
use ecl_core::suite::Algorithm;
use ecl_graph::inputs::GraphInput;
use ecl_graph::props::properties;
use ecl_simt::GpuConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

const SETS: [&str; 2] = ["undirected", "directed"];

/// The sweep configuration every cell is measured under: one run per
/// variant on `TestTiny`.
fn matrix(scale: f64, seed: u64) -> Matrix {
    Matrix::quick()
        .scale(scale)
        .runs(1)
        .seed(seed)
        .gpus(vec![GpuConfig::test_tiny()])
}

/// Measures one cell (`<set>/<input>/<alg>/<gpu>`) in this process and
/// returns its worker document body — what a worker prints, and what the
/// journal must hold for that cell.
///
/// # Errors
///
/// A malformed key.
pub fn measure_cell(key: &str, scale: f64, seed: u64) -> Result<WorkerVerdict, String> {
    let parts: Vec<&str> = key.splitn(4, '/').collect();
    let [_, input, alg, gpu] = parts[..] else {
        return Err(format!("malformed cell key '{key}'"));
    };
    let input = GraphInput::by_name(input).ok_or(format!("unknown input in '{key}'"))?;
    let alg = Algorithm::parse(alg).ok_or(format!("unknown algorithm in '{key}'"))?;
    let gpu = GpuConfig::by_name(gpu).ok_or(format!("unknown GPU in '{key}'"))?;
    let graph = input.build(scale, graph_seed(seed));
    let props = properties(&graph);
    Ok(
        match matrix(scale, seed).try_measure(input.name(), alg, &graph, &gpu, props) {
            Ok(cell) => WorkerVerdict::Ok(cell_json(&cell)),
            Err(failure) => WorkerVerdict::Failed(failure_json(&failure)),
        },
    )
}

/// Worker side of the protocol: measure `key` and print the document.
///
/// # Errors
///
/// A malformed key.
pub fn worker_main(key: &str, scale: f64, seed: u64) -> Result<(), String> {
    let verdict = measure_cell(key, scale, seed)?;
    println!("{}", worker_doc(&verdict).render_compact());
    Ok(())
}

/// See the module docs.
pub struct IsolatedSweep {
    seed: u64,
    scale: f64,
    matrix: Matrix,
    keys: Vec<Vec<String>>,
    dir: PathBuf,
    spec: IsolateSpec,
    reference: HashMap<String, String>,
}

impl IsolatedSweep {
    /// The workload at `size`, writing under `env.scratch`.
    pub fn new(seed: u64, size: Size, env: &Env) -> Self {
        let scale = match size {
            Size::Full => 0.05,
            Size::Toy => 0.02,
        };
        let matrix = matrix(scale, seed);
        let mut keys: Vec<Vec<String>> = SETS
            .iter()
            .map(|set| set_cell_keys(matrix.experiment(), set))
            .collect();
        if size == Size::Toy {
            keys[0].truncate(4);
            keys[1].truncate(4);
        }
        let dir = env
            .scratch
            .join(format!("isolated-sweep-{}", std::process::id()));
        let spec = IsolateSpec {
            exe: env.worker_exe.clone(),
            base_args: vec![
                "--worker-scale".into(),
                scale.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
            timeout: Duration::from_secs(120),
            scratch: dir.join("cells"),
        };
        IsolatedSweep {
            seed,
            scale,
            matrix,
            keys,
            dir,
            spec,
            reference: HashMap::new(),
        }
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
}

impl Workload for IsolatedSweep {
    fn describe(&self) -> Vec<String> {
        vec![
            "load: closed loop, one client, one worker subprocess at a time".into(),
            format!(
                "inputs: {} cells (both catalogs, TestTiny preset, scale {}, 1 run per variant)",
                self.keys.iter().map(Vec::len).sum::<usize>(),
                self.scale
            ),
            "caches: every worker builds a fresh Gpu, so simulated caches start empty".into(),
        ]
    }

    fn setup(&mut self, _t: &mut Tracer) {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).expect("remove the previous pass's directory");
        }
        std::fs::create_dir_all(&self.dir).expect("create the pass directory");
    }

    fn preflight(&mut self, _t: &mut Tracer) -> Checks {
        let mut checks = Checks::default();
        for key in self.keys.iter().flatten() {
            match measure_cell(key, self.scale, self.seed) {
                Ok(WorkerVerdict::Ok(body)) => {
                    self.reference.insert(key.clone(), digest_of(&body));
                }
                other => checks.check(false, || {
                    format!("{key}: in-process cell failed: {other:?}")
                }),
            }
        }
        checks
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut checks = Checks::default();
        let identity = identity_json(self.matrix.experiment(), &SETS);
        let path = self.journal_path();
        let writer = t.span("bench.journal_create", |_| {
            JournalWriter::create(&path, &identity)
        });
        let writer = match writer {
            Ok(w) => w,
            Err(e) => {
                checks.check(false, || format!("journal create failed: {e}"));
                return Pass {
                    checks,
                    ..Pass::default()
                };
            }
        };
        for (i, key) in self.keys.iter().flatten().enumerate() {
            let verdict = t.span("bench.worker", |_| run_worker(&self.spec, key, i));
            t.count("bench.attempts", 1.0);
            let (ok, body) = match verdict {
                Ok(WorkerVerdict::Ok(body)) => (true, body),
                Ok(WorkerVerdict::Failed(body)) => (false, body),
                Err(e) => (false, Json::Str(e.to_string())),
            };
            t.count("bench.cells_failed", !ok as u64 as f64);
            checks.check(ok, || {
                format!("{key}: worker failed: {}", body.render_compact())
            });
            let appended = t.span("bench.journal_append", |_| {
                writer.append_cell(key, ok, &body)
            });
            checks.check(appended.is_ok(), || format!("{key}: journal append failed"));
        }
        drop(writer);
        t.count(
            "bench.cells",
            self.keys.iter().map(Vec::len).sum::<usize>() as f64,
        );

        let mut fp = Digest::new();
        let journal = t.span("bench.journal_load", |_| Journal::load(&path));
        let journal = match journal {
            Ok(j) => j,
            Err(e) => {
                checks.check(false, || format!("journal load failed: {e}"));
                return Pass {
                    checks,
                    ..Pass::default()
                };
            }
        };
        let records: HashMap<String, (bool, Json)> = journal
            .records
            .iter()
            .map(|r| (r.key.clone(), (r.ok, r.body.clone())))
            .collect();
        for key in self.keys.iter().flatten() {
            let loaded = journal.records.iter().find(|r| &r.key == key);
            let expected = self.reference.get(key);
            let same = loaded.is_some_and(|r| Some(&r.digest) == expected);
            checks.check(same, || {
                format!("{key}: journaled body differs from in-process")
            });
            let digest = loaded.map_or(0, |r| u64::from_str_radix(&r.digest, 16).unwrap_or(0));
            fp.push(digest);
        }

        let out = self.dir.join("BENCH_RESULTS.json");
        let exported = t.span("bench.export", |_| -> Result<(), String> {
            let undirected = table_from_records(&records, &self.keys[0])?;
            let directed = table_from_records(&records, &self.keys[1])?;
            let report = BenchReport {
                experiment: self.matrix.experiment(),
                undirected: &undirected,
                directed: &directed,
                timing: None,
            };
            std::fs::write(&out, report.render()).map_err(|e| e.to_string())
        });
        checks.check(exported.is_ok(), || format!("export failed: {exported:?}"));
        Pass {
            checks,
            fingerprint: fp.finish(),
            sim_accesses: 0,
            paper_logerr: None,
        }
    }

    /// Across three ten-seed sets whose probe medians differed by 12%, the
    /// unscaled pass medians moved with the probe: pass / probe stayed
    /// within 113–115. Process spawn and the workers' own work are host
    /// computation, even though each worker is polled only every 15 ms.
    fn host_speed_slope(&self) -> f64 {
        1.0
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
