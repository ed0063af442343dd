//! The measurement loop and the metrics it reports.
//!
//! A run builds the workload, then does one untimed warm-up pass (set-up,
//! the preflight cross-checks, a pass). Then it repeats timed passes — each
//! a set-up followed by a pass — until `seconds` have elapsed. Every pass
//! must reproduce the warm-up pass's fingerprint (simulated counts, cycles
//! and solution digests) exactly.
//!
//! Untraced runs report `setup_s` and `pass_s` as medians over the timed
//! passes, and `peak_rss_mib` as the process's peak resident memory at the
//! end of the warm-up pass.
//! Traced runs alternate untraced and traced passes: the traced ones give
//! the per-layer metrics, the untraced ones the overhead baseline.

use crate::algs::variant_tag;
use crate::algs::VARIANTS;
use crate::stats::{median, min, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{self, sim_count_names, Checks, Env, Size};
use ecl_core::suite::Algorithm;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Seed every input and scheduler seed derives from.
    pub seed: u64,
    /// Measuring time after the warm-up pass.
    pub seconds: f64,
    /// Report per-layer metrics from traced passes instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory and worker executable.
    pub env: Env,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and every pass repeated the warm-up exactly.
    pub correct: bool,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines to print before the result.
    pub lines: Vec<String>,
    /// The recorded spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// End-to-end metrics (name, unit), in report order.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mib", "MiB")];

/// Timed passes to make even when `seconds` runs out first.
const MIN_PASSES: u32 = 4;

/// Runs one benchmark run.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut w = workloads::make(&opts.workload, opts.seed, opts.size, &opts.env)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let mut t = Tracer::new(false);
    let mut checks = Checks::default();

    // Warm-up: untimed, and the reference every later pass must repeat.
    t.begin_pass(0);
    w.setup(&mut t);
    checks.merge(w.preflight(&mut t));
    let first = w.pass(&mut t);
    // Peak memory up to the end of the first complete pass: the same
    // allocation sequence in every run of a seed, unlike a peak taken after
    // however many passes the host's speed allowed.
    let peak_rss = peak_rss_mib();
    let (fingerprint, paper_logerr) = (first.fingerprint, first.paper_logerr);
    checks.merge(first.checks);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Untraced passes' set-up and pass times scaled to the reference host
    // speed (the bounded figures).
    let (mut setup_ref, mut pass_ref) = (Vec::new(), Vec::new());
    let mut probes: Vec<f64> = Vec::new();
    let mut maccess: Vec<f64> = Vec::new();
    let mut traced_passes: Vec<u32> = Vec::new();
    let slope = w.host_speed_slope();
    let mut probe_before = host_speed_probe();
    probes.push(probe_before);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut i = 0u32;
    while i < MIN_PASSES || start.elapsed() < budget {
        i += 1;
        let traced = opts.trace && i.is_multiple_of(2);
        t.set_on(traced);
        t.begin_pass(i);
        let t0 = Instant::now();
        t.span("harness.setup", |t| w.setup(t));
        let t1 = Instant::now();
        let p = t.span("harness.pass", |t| w.pass(t));
        let t2 = Instant::now();
        let probe_after = host_speed_probe();
        probes.push(probe_after);
        let (s, d) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        pass_s[traced as usize].push(d);
        if traced {
            traced_passes.push(i);
        } else {
            setup_s.push(s);
            let scale = (PROBE_REF_S / ((probe_before + probe_after) / 2.0)).powf(slope);
            setup_ref.push(s * scale);
            pass_ref.push(d * scale);
            maccess.push(p.sim_accesses as f64 / d / 1e6);
        }
        probe_before = probe_after;
        checks.check(p.fingerprint == fingerprint, || {
            format!(
                "pass {i} ({}) did not reproduce the warm-up pass's simulated counts/digests",
                if traced { "traced" } else { "untraced" }
            )
        });
        checks.check(p.paper_logerr == paper_logerr, || {
            format!("pass {i}: paper_logerr changed")
        });
        checks.merge(p.checks);
    }
    w.cleanup();

    let mut lines = w.describe();
    lines.push(format!(
        "seed {}: {} timed passes in {:.1} s after one untimed warm-up pass; fingerprint {fingerprint:016x}",
        opts.seed,
        i,
        start.elapsed().as_secs_f64()
    ));
    lines.push(format!(
        "host-speed probe: median {:.6} s, min {:.6} s over {} probes; setup_s and pass_s \
         scaled by ({PROBE_REF_S} s / probe)^{slope}",
        median(&probes),
        min(&probes),
        probes.len(),
    ));
    for (name, xs) in [
        ("setup_s", &setup_ref),
        ("pass_s", &pass_ref),
        ("setup_s unscaled wall", &setup_s),
        ("pass_s unscaled wall", &pass_s[0]),
    ] {
        lines.push(sample_line(name, xs));
    }
    lines.push(format!(
        "maccess_per_s median {:.4} Maccess/s; paper_logerr {}",
        median(&maccess),
        paper_logerr.map_or(
            "n/a (workload does not cover the 20 paper pairs)".into(),
            |e| { format!("{e:.6}") }
        )
    ));
    lines.push(format!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    ));
    lines.extend(checks.notes.iter().map(|n| format!("FAILED: {n}")));

    let metrics = if opts.trace {
        let ctx = LayerContext {
            t: &t,
            passes: &traced_passes,
            untraced_pass_s: median(&pass_s[0]),
            traced_pass_s: median(&pass_s[1]),
            maccess_per_s: median(&maccess),
            paper_logerr: paper_logerr.unwrap_or(0.0),
            probe_s: median(&probes),
        };
        per_layer(&ctx)
    } else {
        let values = [median(&setup_ref), median(&pass_ref), peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                unit,
                value,
            })
            .collect()
    };
    Ok(Report {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        lines,
        spans: opts.trace.then(|| t.to_jsonl()),
    })
}

/// Duration of [`host_speed_probe`] at the reference host speed: `setup_s`
/// and `pass_s` are reported in seconds at this speed.
const PROBE_REF_S: f64 = 0.01;

/// Times a fixed computation in this benchmark's own code, which no change
/// to the program can speed up or slow down: 1.7 million steps of an
/// xorshift generator whose bits pick unpredictable branches and index a
/// 4 KiB table. On a shared 2-vCPU Xeon host, the host's own speed drifted
/// by up to half over seconds to minutes, and process CPU time spread as
/// much as wall time. Of an L2-resident pointer chase, an L3-resident one
/// and this branchy loop (and a hash-map and a sort probe later), the
/// branchy loop tracked every workload's pass times best, so the bounded
/// times are scaled by the probe time measured around their pass, raised
/// to the workload's measured slope (see README.md).
fn host_speed_probe() -> f64 {
    let start = Instant::now();
    let mut table = [0u32; 1024];
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..1_700_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x & 1023) as usize;
        if x & 0x100 != 0 {
            table[k] = table[k].wrapping_add(x as u32);
            acc = acc.wrapping_add(table[(k * 7) & 1023] as u64);
        } else {
            acc ^= x >> 3;
        }
    }
    std::hint::black_box((acc, table));
    start.elapsed().as_secs_f64()
}

fn sample_line(name: &str, xs: &[f64]) -> String {
    let tail = tail_percentile(xs).map_or(
        "no percentile with ten passes beyond it".into(),
        |(p, v)| format!("p{p} {v:.6}"),
    );
    format!(
        "{name}: median {:.6} min {:.6} {tail} over {} passes",
        median(xs),
        min(xs),
        xs.len()
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Inputs of the per-layer metric computation.
struct LayerContext<'a> {
    t: &'a Tracer,
    passes: &'a [u32],
    untraced_pass_s: f64,
    traced_pass_s: f64,
    maccess_per_s: f64,
    paper_logerr: f64,
    probe_s: f64,
}

impl LayerContext<'_> {
    /// Median over the traced passes of a per-pass value.
    fn per_pass(&self, f: impl Fn(u32) -> f64) -> f64 {
        let xs: Vec<f64> = self.passes.iter().map(|&p| f(p)).collect();
        median(&xs)
    }

    fn secs(&self, pass: u32, prefix: &str) -> f64 {
        self.t.secs_of(pass, |n| n.starts_with(prefix))
    }

    fn count(&self, pass: u32, name: &str) -> f64 {
        self.t.count_of(pass, name)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metric names with their units, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    per_layer_defs()
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect()
}

type LayerFn = Box<dyn Fn(&LayerContext<'_>) -> f64>;

fn per_layer_defs() -> Vec<(String, &'static str, LayerFn)> {
    let mut defs: Vec<(String, &'static str, LayerFn)> = Vec::new();
    let mut secs = |name: &str, prefix: &'static str| {
        let f: LayerFn = Box::new(move |c| c.per_pass(|p| c.secs(p, prefix)));
        defs.push((name.to_string(), "s", f));
    };
    secs("graph.build_s", "graph.build");
    secs("simt.device_setup_s", "simt.device_setup");
    secs("simt.run_s", "simt.run/");
    secs("simt.traced_run_s", "simt.traced_run/");
    secs("core.verify_s", "core.verify/");
    secs("racecheck.detect_s", "racecheck.detect");
    secs("analyze.check_s", "analyze.check");
    secs("native.verify_s", "core.verify/native");
    secs("bench.worker_s", "bench.worker");
    secs("bench.journal_append_s", "bench.journal_append");
    secs("bench.journal_load_s", "bench.journal_load");
    secs("bench.export_s", "bench.export");
    for (layer, span) in [("simt.run_s", "simt.run"), ("native.run_s", "native.run")] {
        for alg in Algorithm::ALL {
            for v in VARIANTS {
                let name = format!("{layer}.{}.{}", alg.name().to_lowercase(), variant_tag(v));
                let span = format!("{span}/{}/{}", alg.name(), variant_tag(v));
                let f: LayerFn = Box::new(move |c| c.per_pass(|p| c.t.secs_of(p, |n| n == span)));
                defs.push((name, "s", f));
            }
        }
    }
    for alg in Algorithm::ALL {
        let name = format!("native.rf_over_base.{}", alg.name().to_lowercase());
        let [base, rf] = VARIANTS.map(|v| format!("native.run/{}/{}", alg.name(), variant_tag(v)));
        let f: LayerFn = Box::new(move |c| {
            c.per_pass(|p| ratio(c.t.secs_of(p, |n| n == rf), c.t.secs_of(p, |n| n == base)))
        });
        defs.push((name, "ratio", f));
    }

    let mut count = |name: &'static str, unit: &'static str| {
        let f: LayerFn = Box::new(move |c| c.per_pass(|p| c.count(p, name)));
        defs.push((name.to_string(), unit, f));
    };
    count("graph.edges", "count");
    for name in sim_count_names() {
        count(name, "count");
    }
    for name in [
        "simt.trace_events",
        "simt.trace_truncated",
        "racecheck.findings.baseline",
        "racecheck.findings.racefree",
        "analyze.conflicts",
        "bench.cells",
        "bench.cells_failed",
        "bench.attempts",
    ] {
        count(name, "count");
    }

    let mut derived = |name: &str, unit: &'static str, f: LayerFn| {
        defs.push((name.to_string(), unit, f));
    };
    derived(
        "simt.ns_per_access",
        "ns",
        Box::new(|c| {
            c.per_pass(|p| {
                let s = c.secs(p, "simt.run/") + c.secs(p, "simt.traced_run/");
                ratio(s * 1e9, c.count(p, "simt.accesses"))
            })
        }),
    );
    derived(
        "racecheck.ns_per_event",
        "ns",
        Box::new(|c| {
            c.per_pass(|p| {
                ratio(
                    c.secs(p, "racecheck.detect") * 1e9,
                    c.count(p, "simt.trace_events"),
                )
            })
        }),
    );
    derived(
        "core.valid_ratio",
        "ratio",
        Box::new(|c| c.per_pass(|p| ratio(c.count(p, "core.valid"), c.count(p, "core.verified")))),
    );
    derived(
        "harness.self_s",
        "s",
        Box::new(|c| {
            let own = c.t.self_secs();
            c.per_pass(|p| {
                c.t.spans()
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.pass == p && s.name.starts_with("harness."))
                    .map(|(_, o)| o)
                    .sum()
            })
        }),
    );
    derived("maccess_per_s", "Maccess/s", Box::new(|c| c.maccess_per_s));
    derived("paper_logerr", "ln-ratio", Box::new(|c| c.paper_logerr));
    derived("host.probe_s", "s", Box::new(|c| c.probe_s));
    derived(
        "trace.untraced_pass_s",
        "s",
        Box::new(|c| c.untraced_pass_s),
    );
    derived("trace.traced_pass_s", "s", Box::new(|c| c.traced_pass_s));
    derived(
        "trace.overhead_s",
        "s",
        Box::new(|c| c.traced_pass_s - c.untraced_pass_s),
    );
    defs
}

fn per_layer(c: &LayerContext<'_>) -> Vec<Metric> {
    per_layer_defs()
        .into_iter()
        .map(|(name, unit, f)| Metric {
            name,
            unit,
            value: f(c),
        })
        .collect()
}

/// End-to-end metric names with their units, in report order.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
