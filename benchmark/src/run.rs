//! One workload's run: set-up, warm-up, timed passes, checks, and the
//! traced passes and probes that give the per-layer metrics.

use crate::layers;
use crate::metrics::{quantile, Measured, WorkloadResult, END_TO_END};
use crate::spans::Recorder;
use crate::workload::{self, Inputs, Kind, Pass, LABELS, MODELS};
use std::time::{Duration, Instant};

/// Set-ups before the first pass. Every timed pass is then followed by a
/// fresh set-up whose inputs the next pass uses, so the set-ups that
/// `setup_s` takes the median of are spread over the whole run rather
/// than bunched into one burst of host noise.
const SETUP_REPS: usize = 5;
/// Failure messages kept per run.
const MAX_MESSAGES: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measuring time after the warm-up pass; at least one pass runs.
    pub seconds: f64,
    /// Also run traced passes and the layer probes.
    pub trace: bool,
    /// Use the shrunken test-size inputs.
    pub tiny: bool,
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Interleaved subsets of the passes that give the timings' spread.
const SUBSETS: usize = 4;

/// The timing metrics of a set of passes.
///
/// Other tenants of a shared host only ever slow a request down, often
/// for most of a run, so each request's fastest pass is the one
/// measurement they spared. The timings are built from those best times.
#[derive(Debug)]
struct Timings {
    mips: [f64; 4],
    pass_s: f64,
    request_us_p50: f64,
    request_us_p99: f64,
}

impl Timings {
    fn of(passes: &[&Pass]) -> Timings {
        let best = |each: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
            (0..each(passes[0]).len())
                .map(|i| passes.iter().map(|p| each(p)[i]).fold(f64::INFINITY, f64::min))
                .collect()
        };
        let (cell_secs, request_us) = (best(|p| &p.cell_secs), best(|p| &p.request_us));
        let mut mips = [0.0; 4];
        for (m, v) in mips.iter_mut().enumerate() {
            let secs: f64 = cell_secs.iter().skip(m).step_by(MODELS.len()).sum();
            *v = passes[0].model_instrs[m] as f64 / secs / 1e6;
        }
        Timings {
            mips,
            pass_s: passes.iter().map(|p| p.secs).fold(f64::INFINITY, f64::min),
            request_us_p50: quantile(&request_us, 0.5),
            request_us_p99: quantile(&request_us, 0.99),
        }
    }

    /// The end-to-end timing metric `name`.
    fn get(&self, name: &str) -> f64 {
        match name {
            "pass_s" => self.pass_s,
            "request_us.p50" => self.request_us_p50,
            "request_us.p99" => self.request_us_p99,
            _ => {
                let m = LABELS
                    .iter()
                    .position(|l| name.strip_prefix("mips.") == Some(l))
                    .expect("every other timing is a model's throughput");
                self.mips[m]
            }
        }
    }
}

/// Check outcomes accumulated over a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn add(&mut self, attempted: u64, failures: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        for f in failures {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(f);
            }
        }
    }

    /// Absorbs a pass's own checks and demands its simulated outcomes
    /// repeat the reference pass's exactly.
    fn pass(&mut self, pass: &Pass, reference: &Pass, kind: Kind) {
        self.add(pass.attempted, pass.failures.iter().cloned());
        let mismatched =
            pass.cells.iter().zip(&reference.cells).enumerate().filter(|(_, (a, b))| a != b);
        self.add(
            pass.cells.len() as u64,
            mismatched.map(|(i, _)| {
                format!(
                    "{}: program {} on {} differs between passes",
                    kind.name(),
                    i / 4,
                    LABELS[i % 4]
                )
            }),
        );
    }
}

/// One timed set-up.
fn setup(kind: Kind, opts: &Options, rec: &mut Recorder, secs: &mut Vec<f64>) -> Inputs {
    let t = Instant::now();
    let inputs = workload::setup(kind, opts.seed, opts.tiny, rec);
    secs.push(t.elapsed().as_secs_f64());
    inputs
}

/// Runs one workload and checks every output.
pub fn run_workload(kind: Kind, opts: &Options) -> Result<(WorkloadResult, Recorder), String> {
    let mut rec = Recorder::new();
    rec.set_on(opts.trace);
    let mut setup_secs = Vec::new();
    let reps = if opts.tiny { 1 } else { SETUP_REPS };
    for _ in 1..reps {
        drop(setup(kind, opts, &mut rec, &mut setup_secs));
    }
    let mut inputs = setup(kind, opts, &mut rec, &mut setup_secs);
    rec.set_on(false);
    let mut trace_buf = Vec::new();
    let mut checks = Checks::default();

    let warm = workload::run_pass(kind, &inputs, &mut trace_buf, &mut rec);
    checks.add(warm.attempted, warm.failures.iter().cloned());
    if opts.seed == 1 && !opts.tiny {
        let expected = workload::load_expected(kind)?;
        let got = workload::aggregate(&inputs, &warm.cells);
        let mut failures = Vec::new();
        if got.len() != expected.len() {
            failures.push(format!("{} cells, expected {}", got.len(), expected.len()));
        }
        for (g, e) in got.iter().zip(&expected) {
            if g != e {
                failures.push(format!(
                    "{} on {}: {:?}, expected {:?}",
                    g.program, g.model, g.cell, e.cell
                ));
            }
        }
        checks.add(expected.len() as u64, failures);
    }

    let mut passes = Vec::new();
    let mut traced_secs = Vec::new();
    let limit = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < limit {
        let pass = workload::run_pass(kind, &inputs, &mut trace_buf, &mut rec);
        checks.pass(&pass, &warm, kind);
        passes.push(pass);
        drop(inputs);
        inputs = setup(kind, opts, &mut rec, &mut setup_secs);
        if opts.trace {
            rec.set_on(true);
            let pass = workload::run_pass(kind, &inputs, &mut trace_buf, &mut rec);
            rec.set_on(false);
            checks.pass(&pass, &warm, kind);
            traced_secs.push(pass.secs);
        }
    }

    // The timings over all passes are the reported values. The same
    // timings over interleaved subsets of the passes are the samples
    // whose spread `compare` reads.
    let overall = Timings::of(&passes.iter().collect::<Vec<_>>());
    let subsets: Vec<Timings> = (0..SUBSETS.min(passes.len()))
        .map(|g| Timings::of(&passes.iter().skip(g).step_by(SUBSETS).collect::<Vec<_>>()))
        .collect();
    let mut metrics = Vec::new();
    for def in &END_TO_END {
        let (value, samples) = match def.name {
            "setup_s" => (quantile(&setup_secs, 0.5), setup_secs.clone()),
            "peak_rss_mb" => {
                let mb = peak_rss_mb();
                (mb, vec![mb])
            }
            name => (overall.get(name), subsets.iter().map(|t| t.get(name)).collect()),
        };
        metrics.push(Measured::end_to_end(def, value, samples));
    }
    let mut self_times = Vec::new();
    if opts.trace {
        rec.set_on(true);
        let probe = layers::probe(&inputs, &mut rec);
        rec.set_on(false);
        let untraced: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        let overhead = quantile(&traced_secs, 0.5) / quantile(&untraced, 0.5) - 1.0;
        let traced = traced_secs.len() as u64;
        metrics.extend(layers::metrics(&rec, &probe, &inputs, &warm, traced, overhead));
        self_times = rec.self_times();
    }
    let result = WorkloadResult {
        workload: kind.name().to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        tiny: opts.tiny,
        traced: opts.trace,
        passes: passes.len() as u64,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.messages,
        metrics,
        self_times,
    };
    Ok((result, rec))
}

/// One untraced pass at seed 1 and full size, checked against the
/// interpreter: the cells `--bless` commits as expectations.
pub fn bless(kind: Kind) -> Result<Vec<workload::ExpectedCell>, String> {
    let mut rec = Recorder::new();
    let inputs = workload::setup(kind, 1, false, &mut rec);
    let pass = workload::run_pass(kind, &inputs, &mut Vec::new(), &mut rec);
    if let Some(f) = pass.failures.first() {
        return Err(format!("{}: {} checks failed, first: {f}", kind.name(), pass.failures.len()));
    }
    Ok(workload::aggregate(&inputs, &pass.cells))
}
