//! Leva's benchmark: three workloads, each fitting the `financial`
//! database from CSV text, scoring holdout quality, featurizing offline,
//! saving the artifact, and serving it from the shipped `leva-serve`
//! daemon under open-loop reads and appends.
//!
//! ```text
//! perfbench --workload fit_mf|fit_rw|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: end-to-end metrics
//! untraced, per-layer metrics traced. A report with provenance, checks
//! and per-phase counts goes to `.perfbench/<workload>-seed<N>-trace<T>/`.

mod data;
mod fit;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use leva::{EmbeddingMethod, Leva, LevaConfig, LevaModel};

use data::Inputs;
use report::{Checks, Metrics, Ops, Phase, END_TO_END, PER_LAYER};
use serve::{Daemon, Expected, Pool};
use stats::{max_rate, median, Rung};
use trace::Tracer;

/// One named set of inputs and the share of the run its fits take.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `financial` scale (1.0 = 800 base rows).
    pub scale: f64,
    /// Embedding method, forced.
    pub method: EmbeddingMethod,
    /// Share of `--seconds` spent on repeated fits, split evenly over
    /// the [`ROUNDS`], each of at least one fit.
    pub fit_share: f64,
}

/// The workloads. `fit_mf` is dominated by the proximity matrix and
/// rSVD, `fit_rw` by SGNS, and `serve` by the daemon; each still runs
/// every stage, so every metric exists on every workload.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fit_mf",
        scale: 8.0,
        method: EmbeddingMethod::MatrixFactorization,
        fit_share: 0.2,
    },
    Workload {
        name: "fit_rw",
        scale: 0.5,
        method: EmbeddingMethod::RandomWalk,
        fit_share: 0.24,
    },
    Workload {
        name: "serve",
        scale: 4.0,
        method: EmbeddingMethod::MatrixFactorization,
        fit_share: 0.24,
    },
];

/// Worker threads of the fitted model, in the fit and when serving. Two
/// Hogwild SGNS threads on two cores take either about half or about one
/// and a half times the one-thread time per fit, changing from fit to
/// fit; one thread keeps every fit and featurize timing steady.
const MODEL_THREADS: usize = 1;
/// Rounds of the CPU-bound measurements (set-up, fit, offline
/// featurize, cold start), spread over the run: before serving and at
/// the two gaps of [`serve_workload`]. The host is shared and slows
/// for seconds at a time; rounds from the whole run give medians that
/// one slow spell cannot carry.
const ROUNDS: usize = 3;
/// Share of `--seconds` each round spends on repeated set-ups; `setup_s`
/// is the median of these and of the set-up the run uses.
const SETUP_SHARE: f64 = 0.01;
/// Share of `--seconds` spent on offline featurization after each fit.
/// `featurize_rows_per_s` is rows over seconds across all of them: the
/// host runs short work at one of two speeds 1.7× apart, switching every
/// 0.2–2 s, and a median of per-call rates jumps between the two.
const FEATURIZE_SHARE: f64 = 0.008;
/// Read requests pre-encoded in set-up.
const POOL: usize = 4_096;
/// Append bodies prepared in set-up, four held-out rows each.
const BODIES: usize = 256;
/// Binary connections of the read phases.
const CONNS: usize = 2;
/// Tail-latency limit for `max_rate_rps`, ms.
const LATENCY_LIMIT_MS: f64 = 10.0;
/// Reference read rate over both connections, requests/s: about a fifth
/// of saturation on two cores.
const REFERENCE_RPS: f64 = 200.0;
/// Short ladder rungs beside the reference rate, requests/s.
const LADDER_RPS: [f64; 4] = [50.0, 100.0, 400.0, 800.0];
/// Offered rate of the saturation burst, far above capacity.
const SATURATION_RPS: f64 = 3_000.0;
/// Appends per second in the mixed phase.
const APPEND_RPS: f64 = 4.0;
/// Serving phase lengths as shares of `--seconds`: at 35 s the reference
/// phase collects 1,100 reads and the mixed phase 1,500, enough for a p99.
const WARMUP_SHARE: f64 = 0.5 / 35.0;
const REFERENCE_SHARE: f64 = 5.5 / 35.0;
const RUNG_SHARE: f64 = 0.45 / 35.0;
const SATURATION_SHARE: f64 = 0.5 / 35.0;
const MIXED_SHARE: f64 = 15.0 / 35.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, not {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad(&format!("one of {:?}", WORKLOADS.map(|w| w.name))))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("positive"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| {
        format!("missing {name}; usage: perfbench --workload W --seed N --seconds S --trace 0|1")
    };
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the seed determines, built once per set-up.
struct Setup {
    inputs: Inputs,
    pool: Pool,
    bodies: Vec<String>,
}

fn set_up(w: &Workload, seed: u64) -> Result<Setup, String> {
    let inputs = Inputs::generate(w.scale, seed)?;
    let pool = Pool::new(&inputs, POOL, seed);
    let held = inputs.held_out.row_count();
    let bodies = (0..BODIES)
        .map(|k| inputs.append_body(&(0..4).map(|j| (4 * k + j) % held).collect::<Vec<_>>()))
        .collect();
    Ok(Setup {
        inputs,
        pool,
        bodies,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let bin = serve::server_binary()?;
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tr = Tracer::new(args.trace);
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut phases: Vec<Phase> = Vec::new();

    let mut setup_s = Vec::new();
    let t = Instant::now();
    let Setup {
        inputs,
        pool,
        bodies,
    } = set_up(w, args.seed)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut cfg = LevaConfig::fast().with_threads(MODEL_THREADS);
    cfg.method = w.method;
    let leva = Leva::with_config(cfg.clone())
        .base_table(&inputs.base_table)
        .target(&inputs.target);
    let mut fits = fit::Fits::new(&leva, &cfg, &inputs);
    // One round of the CPU-bound measurements: repeated set-ups, then a
    // slice of fits, each followed by offline featurization of its model.
    let mut round = |tr: &mut Tracer, checks: &mut Checks| {
        let start = Instant::now();
        while start.elapsed() < budget(SETUP_SHARE) {
            let t = Instant::now();
            drop(set_up(w, args.seed)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        fits.slice(
            budget(w.fit_share / ROUNDS as f64),
            budget(FEATURIZE_SHARE),
            tr,
            checks,
        )
    };
    let model = round(&mut tr, &mut checks)?;

    let acc = fit::holdout_accuracy(&model, &inputs)?;
    fit::check_accuracy(acc, &mut checks);
    metrics.set("holdout_accuracy", acc);
    if args.trace {
        fit::featurizer_layer(&model, &mut tr, &mut metrics);
    }
    let artifact = dir.join("model.leva");
    let bytes = fit::artifact_phase(&model, &artifact, &mut tr, &mut metrics, &mut checks)?;
    metrics.set("artifact_mb", bytes.len() as f64 / 1e6);
    if args.trace {
        fit::append_layer(
            &model,
            &inputs.base_table,
            &bodies[..8],
            &mut tr,
            &mut metrics,
        )?;
    }
    drop(model);

    let twin = LevaModel::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let checksum = leva_interner::codec::crc32(&bytes);
    let ctx = ServeCtx {
        bin: &bin,
        artifact: &artifact,
        dir: &dir,
        pool: &pool,
        bodies: &bodies,
        twin,
        checksum,
        seed: args.seed,
        trace: args.trace,
        table: &inputs.base_table,
    };
    let rungs = serve_workload(
        &ctx,
        args.seconds,
        &mut tr,
        &mut metrics,
        &mut checks,
        &mut phases,
        &mut |tr, checks| round(tr, checks).map(drop),
    )?;
    let _ = std::fs::remove_file(&artifact);
    phases.insert(0, Phase::new("fit", fits.ops));
    metrics.set("setup_s", median(&setup_s));
    metrics.set("fit_s", median(&fits.fit_s));
    metrics.set(
        "featurize_rows_per_s",
        fits.featurized_rows / fits.featurize_s,
    );
    if args.trace {
        fits.layer_metrics(&tr, &mut metrics);
        fit::featurize_layer(&inputs, &tr, &mut metrics);
    }

    let total = phases.iter().fold(Ops::default(), |mut acc, p| {
        acc.add(p.ops);
        acc
    });
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = metrics.json(names)?;
    write_report(
        &dir,
        args,
        &metrics,
        &checks,
        &phases,
        &rungs,
        &[("setup_s", &setup_s), ("fit_s", &fits.fit_s)],
    )?;
    if args.trace {
        std::fs::write(dir.join("spans.json"), tr.to_json()).map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {result}}}",
        checks.all_passed(),
        total.attempted.max(1),
        total.failed
    ))
}

struct ServeCtx<'a> {
    bin: &'a Path,
    artifact: &'a Path,
    dir: &'a Path,
    pool: &'a Pool,
    bodies: &'a [String],
    twin: LevaModel,
    checksum: u32,
    seed: u64,
    trace: bool,
    table: &'a str,
}

/// On one daemon: warm-up, the reference rate, the ladder, a saturation
/// burst, and reads beside appends. A cold start on a second daemon
/// comes before the first phase and at each of two gaps, before the
/// mixed phase and after the daemon stops; `interlude` runs at each
/// gap. Returns the ladder's rungs.
fn serve_workload(
    ctx: &ServeCtx,
    seconds: f64,
    tr: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
    phases: &mut Vec<Phase>,
    interlude: &mut dyn FnMut(&mut Tracer, &mut Checks) -> Result<(), String>,
) -> Result<Vec<Rung>, String> {
    let log = ctx.dir.join("leva-serve.log");
    let cold_log = ctx.dir.join("leva-serve-cold.log");
    let mut expected = Expected::new(&ctx.twin);
    let mut cold = Vec::new();
    let mut cold_ops = Ops::default();
    let mut cold_start = |expected: &mut Expected, checks: &mut Checks| {
        cold_ops.attempted += 1;
        let (ms, ok) = serve::cold_start(
            ctx.bin,
            ctx.artifact,
            &cold_log,
            ctx.pool,
            expected,
            ctx.checksum,
        )?;
        checks.expect(
            "cold_start_response_matches",
            ok,
            "first response differs from in-process featurize",
        );
        cold_ops.failed += usize::from(!ok);
        cold.push(ms);
        Ok::<_, String>(())
    };
    cold_start(&mut expected, checks)?;

    let daemon = Daemon::spawn(ctx.bin, ctx.artifact, &log)?;
    let addr = daemon.addr;
    let mut samples = Vec::new();
    let phase = |name: String,
                 rate: f64,
                 share: f64,
                 salt: u64,
                 phases: &mut Vec<Phase>,
                 checks: &mut Checks| {
        let reads = serve::read_phase(
            addr,
            ctx.pool,
            rate,
            seconds * share,
            CONNS,
            ctx.seed ^ salt,
            8,
        )?;
        checks.expect(
            "serve_responses_well_formed",
            reads.malformed == 0,
            format!("{name}: {} malformed", reads.malformed),
        );
        phases.push(reads.phase(name));
        Ok::<_, String>(reads)
    };

    phase(
        "warmup".into(),
        REFERENCE_RPS,
        WARMUP_SHARE,
        1,
        phases,
        checks,
    )?;
    let mut reference = phase(
        "reference".into(),
        REFERENCE_RPS,
        REFERENCE_SHARE,
        2,
        phases,
        checks,
    )?;
    let lat = reference.latency();
    metrics.set("read_p50_ms", lat.p50_ms);
    metrics.set("read_p99_ms", lat.tail_ms);
    metrics.set("rss_mb", daemon.rss_mb()?);
    let server = daemon.metrics()?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&server, |v, k| v.get(k))
            .and_then(leva_embedding::json::Value::as_f64)
            .ok_or_else(|| format!("/metrics has no {}", path.join(".")))
    };
    let server_p50_us = num(&["latency_us", "p50"])?;
    metrics.set("serve.server_p50_us", server_p50_us);
    metrics.set("serve.server_p99_us", num(&["latency_us", "p99"])?);
    let batches = num(&["batches"])?;
    metrics.set("serve.batches", batches);
    metrics.set(
        "serve.requests_per_batch",
        num(&["requests"])? / batches.max(1.0),
    );
    metrics.set("serve.cache_bytes", num(&["cache_bytes"])?);
    metrics.set("serve.socket_gap_p50_ms", lat.p50_ms - server_p50_us / 1e3);
    let decoded = reference.latencies_ms.len().max(1) as f64;
    metrics.set(
        "serve.wire_decode_us",
        reference.decode_ns as f64 / 1e3 / decoded,
    );
    metrics.set(
        "serve.request_bytes",
        reference.request_bytes as f64 / reference.ops.attempted.max(1) as f64,
    );
    metrics.set(
        "serve.response_bytes",
        reference.response_bytes as f64 / decoded,
    );
    let mut rungs = vec![Rung {
        rate: REFERENCE_RPS,
        latency: lat,
        attempted: reference.ops.attempted,
        failed: reference.ops.failed,
        backlog_growing: reference.backlog_growing(),
    }];
    samples.append(&mut reference.samples);

    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let mut reads = phase(
            format!("ladder_{rate}"),
            rate,
            RUNG_SHARE,
            10 + k as u64,
            phases,
            checks,
        )?;
        rungs.push(Rung {
            rate,
            latency: reads.latency(),
            attempted: reads.ops.attempted,
            failed: reads.ops.failed,
            backlog_growing: reads.backlog_growing(),
        });
        samples.append(&mut reads.samples);
    }
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    metrics.set("max_rate_rps", max_rate(&rungs, LATENCY_LIMIT_MS));

    // The burst offers more than the daemon can take; every request still
    // completes, and lateness here is not the generator's.
    let burst = serve::read_phase(
        addr,
        ctx.pool,
        SATURATION_RPS,
        seconds * SATURATION_SHARE,
        CONNS,
        ctx.seed ^ 3,
        64,
    )?;
    phases.push(Phase::new("saturation", burst.ops));
    metrics.set(
        "saturation_rps",
        burst.latencies_ms.len() as f64 / burst.busy_s,
    );
    samples.extend(burst.samples);

    interlude(tr, checks)?;
    cold_start(&mut expected, checks)?;
    let (mixed, appended, append_ops) = serve::mixed_phase(
        addr,
        ctx.pool,
        REFERENCE_RPS / CONNS as f64,
        seconds * MIXED_SHARE,
        APPEND_RPS,
        ctx.bodies,
        ctx.seed,
    )?;
    checks.expect(
        "serve_responses_well_formed",
        mixed.malformed == 0,
        "mixed reads malformed",
    );
    phases.push(mixed.phase("mixed_reads".into()));
    phases.push(Phase::new("mixed_appends", append_ops));
    metrics.set("mixed_read_p99_ms", mixed.latency().tail_ms);
    metrics.set(
        "append_p50_ms",
        median(&appended.iter().map(|a| a.latency_ms).collect::<Vec<_>>()),
    );
    let late = phases
        .iter()
        .filter_map(|p| p.load)
        .map(|(late, _, _)| late);
    metrics.set("loadgen.lateness_p99_ms", late.fold(0.0, f64::max));
    daemon.stop()?;
    interlude(tr, checks)?;
    cold_start(&mut expected, checks)?;
    phases.push(Phase::new("cold_start", cold_ops));
    metrics.set("cold_start_ms", median(&cold));

    if ctx.trace {
        for r in ctx.pool.requests.iter().take(1_024) {
            tr.span("serve.wire_encode", |_| {
                std::hint::black_box(leva_serve::wire::encode_binary_request(r))
            });
        }
        metrics.set(
            "serve.wire_encode_us",
            median(&tr.secs("serve.wire_encode")) * 1e6,
        );
    }
    let good = samples
        .iter()
        .filter(|s| s.version == 1 && s.checksum == ctx.checksum && expected.matches(ctx.pool, s))
        .count();
    checks.expect(
        "served_features_match_in_process",
        good == samples.len(),
        format!(
            "{} of {} sampled responses differ",
            samples.len() - good,
            samples.len()
        ),
    );
    let (checked, matched, last_ok) = serve::verify_mixed(
        ctx.twin.clone(),
        ctx.table,
        ctx.bodies,
        &appended,
        &mixed.samples,
        ctx.pool,
    )?;
    checks.expect(
        "mixed_reads_match_replayed_appends",
        checked == matched,
        format!("{} of {checked} differ", checked - matched),
    );
    checks.expect(
        "append_checksums_match_replay",
        last_ok,
        "replayed appends give another artifact",
    );
    Ok(rungs)
}

fn write_report(
    dir: &Path,
    args: &Args,
    metrics: &Metrics,
    checks: &Checks,
    phases: &[Phase],
    rungs: &[Rung],
    samples: &[(&str, &[f64])],
) -> Result<(), String> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let phase_json: Vec<String> = phases.iter().map(Phase::json).collect();
    let behind: Vec<String> = phases
        .iter()
        .filter(|p| {
            p.load
                .is_some_and(|(late, _, _)| late > serve::LATE_LIMIT_MS)
        })
        .map(|p| format!("\"{}\"", p.name))
        .collect();
    let rung_json: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\": {}, \"n\": {}, \"p50_ms\": {}, \"tail_p\": {}, \"tail_ms\": {}, \"attempted\": {}, \"failed\": {}, \"backlog_growing\": {}}}",
                r.rate, r.latency.n, r.latency.p50_ms, r.latency.tail_p, r.latency.tail_ms, r.attempted, r.failed, r.backlog_growing
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"workload\": \"{}\",\n\"scale\": {},\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\
         \"provenance\": {{\"nproc\": {nproc}, \"kernel\": \"{kernel}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}},\n\
         \"samples\": {{{}}},\n\"metrics\": {},\n\"checks\": {},\n\"phases\": [{}],\n\"ladder\": [{}],\n\"generator_behind\": [{}]\n}}\n",
        args.workload.name,
        args.workload.scale,
        args.seed,
        args.seconds,
        args.trace,
        cmd("rustc", &["--version"]),
        cmd("git", &["rev-parse", "HEAD"]),
        samples.iter().map(|(n, v)| format!("\"{n}\": {v:?}")).collect::<Vec<_>>().join(", "),
        metrics.json(names)?,
        checks.json(),
        phase_json.join(", "),
        rung_json.join(", "),
        behind.join(", "),
    );
    std::fs::write(dir.join("report.json"), doc).map_err(|e| e.to_string())
}
