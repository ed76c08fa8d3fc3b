//! Subcommand implementations for the `soi` binary.

use crate::args::{Args, JobGeometry};
use soi_core::{SoiFft, SoiParams, SoiRealWorkspace, SoiWorkspace, ThreadPool};
use soi_dist::{BaselineFft, ChargePolicy, ComputeRates, DistSoiFft, ExchangeVariant, PhaseTimes};
use soi_num::Complex64;
use soi_simnet::{Cluster, Fabric, RankComm};
use soi_trace::{Event, Trace, TraceSet};
use soi_window::{design_compact, design_gaussian, design_two_param};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
soi — low-communication 1-D FFT (Tang et al., SC 2012 reproduction)

USAGE:
  soi transform --n <size> --p <segments> [--digits <6..15>] [--band <k0>]
                [--threads <t>] [--input complex|real]
      Run a SOI transform on a synthetic signal; checks against an exact
      FFT and prints accuracy and timing. --band computes one M-bin zoom
      band starting at bin k0 instead of the full spectrum. --threads
      fans the compute stages across t workers (default 1 = serial); the
      result is bitwise identical for every worker count. --input real
      runs the r2c pipeline (real samples in, packed N/2+1 half-spectrum
      out; needs an even P) and also times the complex path on the same
      signal to report the r2c speedup.

  soi design --beta <rate> --digits <d> [--family two-param|gaussian|compact]
      Search window parameters (tau, sigma, B) for an accuracy target.

  soi simulate --nodes <r> --points <per-node> [--fabric endeavor|gordon|ethernet]
               [--trace <file.jsonl>]
      Run SOI and the triple-all-to-all baseline on the simulated cluster
      and print the speedup and phase breakdown. --trace (or the
      SOI_TRACE environment variable) records every phase span, message,
      and collective of the SOI run as JSON lines, then validates the
      trace for communication conservation before writing it.

  soi launch --ranks <r> [--n <size>] [--p <segments>] [--digits <6..15>]
             [--threads <t>] [--trace <file.jsonl>] [--ckpt-dir <dir>]
      Spawn <r> local worker processes, bootstrap a full TCP mesh between
      them, and run the distributed SOI FFT over real sockets. The
      launcher aggregates per-rank results and traces, validates the
      captured traffic for communication conservation, and checks the
      assembled spectrum bitwise against an in-process reference run.
      --ckpt-dir (or SOI_CKPT_DIR) arms checkpointing: workers persist
      per-rank state at every phase boundary and the job survives one
      rank death — the launcher respawns the dead rank, every survivor
      re-rendezvouses into the next epoch, and the job replays from
      checkpoints to a bitwise-identical spectrum. Fault injection:
      SOI_FAULT_PHASE=<k> makes a victim rank (SOI_FAULT_RANK, default
      1) abort its process at phase boundary k in [0, 7]; a checkpoint
      directory is created automatically if none was given.

  soi worker --rendezvous <host:port> [--n ...] [--p ...] [--digits ...]
             [--threads ...] [--ckpt-dir <dir>] [--rejoin <rank>]
      One rank of a `soi launch` job (started by the launcher; runnable
      by hand across machines). Joins the rendezvous point, computes its
      slice, and reports the result over its control connection.
      --rejoin reclaims a dead rank's slot in the recovery epoch,
      reloading its input from the checkpoint directory; such a worker
      ignores any armed fault.

  soi serve [--addr <host:port>] [--threads <t>] [--queue <cap>]
            [--engines <cap>] [--idle-ms <ms>] [--stats <host:port>]
      Run the long-lived spectral-transform daemon: accepts transform
      requests (full spectra, segments, zoom bands; complex and real
      input) from many concurrent clients, answers them in arrival order
      through cached per-geometry engines, sheds load past --queue with
      typed Overloaded rejects, and expires queued requests past their
      deadline with typed Expired rejects — never partial results.
      --addr defaults to 127.0.0.1:0 (a free port, printed on startup).
      Env knobs: SOI_SERVE_QUEUE/ENGINES/IDLE_MS. --stats <addr> instead
      connects to a running daemon and prints its accounting snapshot
      (per-tenant requests/bytes/compute, batches, plan-cache hits).

  soi request --addr <host:port> [--n <size>] [--p <segments>]
              [--digits <6..15>] [--input complex|real] [--segment <s>]
              [--band <k0>] [--deadline-ms <ms>] [--tenant <name>]
              [--count <c>] [--check 1] [--shutdown 1]
      Send transform requests for the standard synthetic signal to a
      running daemon. --segment/--band select one M-bin slice instead of
      the full spectrum; --input real exercises the r2c path. --count
      pipelines c identical requests. --check 1 recomputes the transform
      locally and fails unless every response is bitwise identical.
      --shutdown 1 asks the daemon to drain and exit.

  soi trace-check --file <trace.jsonl>
      Validate a recorded trace: per-link byte conservation, identical
      collective sequences, clock monotonicity, barrier agreement, span
      nesting. Prints a summary or the first violation.

  soi trace-view --file <trace.jsonl> [--out <trace.json>]
      Convert a recorded trace to Chrome trace-event JSON for
      chrome://tracing or ui.perfetto.dev (stdout if --out is omitted).

  soi info
      Print version and configuration summary.
";

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn synthetic(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|j| {
            let t = j as f64;
            Complex64::new((t * 0.37).sin() + 0.4 * (t * 1.7).cos(), (t * 0.11).cos())
        })
        .collect()
}

/// `soi transform`.
pub fn transform(a: &Args) -> CmdResult {
    a.restrict(&["n", "p", "digits", "band", "threads", "input"])?;
    let geo = JobGeometry::from_args(a, 1 << 16, 8)?;
    let JobGeometry { n, p, digits, threads } = geo;
    let preset = soi_serve::preset_for_digits(digits);
    let params = SoiParams::with_preset(n, p, preset)?;
    let soi = SoiFft::new(&params)?;
    let cfg = *soi.config();
    println!(
        "SOI: N = {n}, P = {p}, M' = {}, B = {}, kappa = {:.1}, predicted err ~ {:.1e}, threads = {threads}",
        cfg.m_prime,
        cfg.b,
        cfg.kappa,
        cfg.predicted_error()
    );
    match a.get("input").unwrap_or("complex") {
        "complex" => {}
        "real" => return transform_real(&soi, n, threads),
        other => return Err(format!("unknown input kind `{other}` (complex|real)").into()),
    }
    let x = synthetic(n);
    if let Some(k0s) = a.get("band") {
        let k0: usize = k0s.parse().map_err(|_| "--band must be an integer")?;
        let pool = ThreadPool::new(threads);
        let t0 = Instant::now();
        let band = soi.transform_band_pooled(&x, k0, &pool)?;
        let dt = t0.elapsed();
        let (peak_bin, peak) = band
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        println!(
            "band [{k0}, {}) in {dt:?}; peak |Y| = {peak:.3} at bin {}",
            k0 + cfg.m,
            k0 + peak_bin
        );
        return Ok(());
    }
    let mut ws = SoiWorkspace::new(&soi, threads);
    let mut y = vec![Complex64::ZERO; n];
    let t0 = Instant::now();
    soi.transform_into(&x, &mut y, &mut ws)?;
    let soi_t = t0.elapsed();
    let t0 = Instant::now();
    let exact = soi_fft::fft_forward(&x);
    let fft_t = t0.elapsed();
    let err = soi_num::complex::rel_l2_error(&y, &exact);
    println!("SOI transform: {soi_t:?}  |  plain FFT: {fft_t:?}");
    println!("relative L2 error vs exact FFT: {err:.3e}");
    Ok(())
}

/// `soi transform --input real`: the r2c pipeline on real samples, with
/// the complex path timed on the same (embedded) signal for the speedup.
fn transform_real(soi: &SoiFft, n: usize, threads: usize) -> CmdResult {
    let x: Vec<f64> = (0..n)
        .map(|j| {
            let t = j as f64;
            (t * 0.37).sin() + 0.4 * (t * 1.7).cos()
        })
        .collect();
    let mut ws = SoiRealWorkspace::new(soi, threads);
    let mut y = vec![Complex64::ZERO; n / 2 + 1];
    let t0 = Instant::now();
    soi.transform_real_into(&x, &mut y, &mut ws)?;
    let real_t = t0.elapsed();

    let xc: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
    let mut cws = SoiWorkspace::new(soi, threads);
    let mut yc = vec![Complex64::ZERO; n];
    let t0 = Instant::now();
    soi.transform_into(&xc, &mut yc, &mut cws)?;
    let complex_t = t0.elapsed();

    let exact = soi_fft::fft_forward(&xc);
    let err = soi_num::complex::rel_l2_error(&y, &exact[..n / 2 + 1]);
    println!(
        "r2c transform: {real_t:?} ({} half-spectrum bins)  |  complex path: {complex_t:?}",
        n / 2 + 1
    );
    println!(
        "relative L2 error vs exact FFT: {err:.3e}; r2c speedup {:.2}x",
        complex_t.as_secs_f64() / real_t.as_secs_f64()
    );
    Ok(())
}

/// `soi design`.
pub fn design(a: &Args) -> CmdResult {
    a.restrict(&["beta", "digits", "family", "kappa-max"])?;
    let beta = a.get_f64("beta", 0.25)?;
    let digits = a.get_usize("digits", 15)?;
    let kappa_max = a.get_f64("kappa-max", 1000.0)?;
    let target = 10f64.powi(-(digits as i32));
    match a.get("family").unwrap_or("two-param") {
        "two-param" => {
            let d = design_two_param(beta, target, kappa_max)?;
            println!(
                "two-param: tau = {:.4}, sigma = {:.2}, B = {}, kappa = {:.1}",
                d.window.tau, d.window.sigma, d.b, d.kappa
            );
            println!(
                "alias = {:.2e}, trunc = {:.2e}, predicted error ~ {:.2e}",
                d.alias,
                d.trunc,
                d.predicted_error()
            );
        }
        "gaussian" => {
            let d = design_gaussian(beta, target, kappa_max)?;
            println!(
                "gaussian: sigma = {:.2}, B = {}, kappa = {:.1}, alias = {:.2e}, trunc = {:.2e}",
                d.window.sigma, d.b, d.kappa, d.alias, d.trunc
            );
        }
        "compact" => {
            let d = design_compact(beta, target, kappa_max)?;
            println!(
                "compact: tau = {:.4}, u_max = {:.3}, B = {}, kappa = {:.1}, alias = 0 (exact), trunc = {:.2e}",
                d.window.tau, d.window.u_max, d.b, d.kappa, d.trunc
            );
        }
        other => return Err(format!("unknown family `{other}`").into()),
    }
    Ok(())
}

/// `soi simulate`.
pub fn simulate(a: &Args) -> CmdResult {
    a.restrict(&["nodes", "points", "fabric", "digits", "trace"])?;
    let nodes = a.get_positive("nodes", 4)?;
    let points = a.get_positive("points", 1 << 14)?;
    let digits = u32::try_from(a.get_usize("digits", 15)?).unwrap_or(u32::MAX);
    let trace_path: Option<String> = a
        .get("trace")
        .map(String::from)
        .or_else(soi_trace::path_from_env);
    let fabric = match a.get("fabric").unwrap_or("endeavor") {
        "endeavor" => Fabric::endeavor_fat_tree(),
        "gordon" => Fabric::gordon_torus(),
        "ethernet" => Fabric::ethernet_10g(),
        "ideal" => Fabric::Ideal,
        other => return Err(format!("unknown fabric `{other}`").into()),
    };
    let n = nodes * points;
    let preset = soi_serve::preset_for_digits(digits);
    let params = SoiParams::with_preset(n, nodes, preset)?;
    let dist = DistSoiFft::new(&params)?;
    // Pre-flight the partition so a bad rank count surfaces as a usage
    // error here, not inside every simulated rank.
    dist.segments_per_rank(nodes)?;
    let base = BaselineFft::new(n, nodes, ExchangeVariant::Collective);
    let x = synthetic(n);
    let policy = ChargePolicy::Rates(ComputeRates::paper_node());
    let exact = soi_fft::fft_forward(&x);

    let (xr, dr) = (&x, &dist);
    let m = points;
    let soi_job = move |comm: &mut RankComm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run(comm, local, policy).expect("partition pre-validated")
    };
    let soi_out = if let Some(path) = &trace_path {
        let (out, traces) = Cluster::new(nodes, fabric.clone()).run_traced(&soi_job);
        let summary = traces.validate()?;
        traces.write_jsonl_file(Path::new(path))?;
        println!(
            "trace    : {} events / {} messages / {} bytes on {} ranks -> {path} (conservation OK)",
            summary.events, summary.messages, summary.bytes, summary.ranks,
        );
        out
    } else {
        Cluster::new(nodes, fabric.clone()).run(&soi_job)
    };
    let soi_y: Vec<Complex64> = soi_out.iter().flat_map(|((y, _), _)| y.clone()).collect();
    let soi_make = soi_out.iter().map(|(_, r)| r.sim_time).fold(0.0, f64::max);
    let t = &soi_out[0].0 .1;
    println!(
        "SOI      : {:.4} virtual s (conv {:.4}, F_P {:.4}, exchange {:.4}, F_M' {:.4}); err {:.1e}; {} all-to-all",
        soi_make,
        t.conv,
        t.fft_small,
        t.exchange,
        t.fft_large,
        soi_num::complex::rel_l2_error(&soi_y, &exact),
        soi_out[0].1.stats.all_to_alls,
    );

    let br = &base;
    let base_out = Cluster::new(nodes, fabric).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        br.run(comm, local, policy).expect("partition pre-validated")
    });
    let base_y: Vec<Complex64> = base_out.iter().flat_map(|((y, _), _)| y.clone()).collect();
    let base_make = base_out.iter().map(|(_, r)| r.sim_time).fold(0.0, f64::max);
    println!(
        "baseline : {:.4} virtual s; err {:.1e}; {} all-to-alls",
        base_make,
        soi_num::complex::rel_l2_error(&base_y, &exact),
        base_out[0].1.stats.all_to_alls,
    );
    println!("speedup  : {:.2}x", base_make / soi_make);
    Ok(())
}

/// `soi trace-check`.
pub fn trace_check(a: &Args) -> CmdResult {
    a.restrict(&["file"])?;
    let path = a
        .get("file")
        .ok_or("trace-check needs --file <trace.jsonl>")?;
    let traces = TraceSet::read_jsonl_file(Path::new(path))?;
    let summary = traces.validate()?;
    println!(
        "{path}: OK — {} ranks, {} events, {} messages, {} bytes",
        summary.ranks, summary.events, summary.messages, summary.bytes
    );
    println!(
        "collectives: {} ({})",
        summary.collectives.len(),
        summary
            .collectives
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !summary.phases.is_empty() {
        println!("phases: {}", summary.phases.join(", "));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Out-of-process execution: `soi launch` / `soi worker`.
//
// The launcher owns a rendezvous socket and R child processes; each child
// bootstraps into the TCP mesh, computes its slice of the same synthetic
// input the launcher would use, and ships `(rank, PhaseTimes, spectrum,
// trace)` back over its control connection as one RESULT frame. The
// launcher reassembles the global spectrum in rank order, validates the
// merged trace, and diffs the result bitwise against an in-process
// reference run on the simulated cluster — the two transports must agree
// to the last bit, not approximately.
//
// With a checkpoint directory armed, the job additionally survives one
// rank death: each worker runs the recoverable driver
// (`soi_dist::run_wire_recoverable`), the launcher watches every control
// stream concurrently, and a dead worker's EOF triggers a respawn with
// `--rejoin <rank>` plus a `Rendezvous::reserve` round that re-wires all
// survivors into epoch 1. The replayed job must still pass the bitwise
// cross-check and trace conservation (with per-rank rejoin markers).
// ---------------------------------------------------------------------------

use soi_dist::{run_wire_recoverable, CheckpointStore, DirStore, FaultPlan};
use soi_wire::frame::{expect_frame, write_frame, TAG_ERROR, TAG_RESULT};
use soi_wire::pod::{PayloadReader, PayloadWriter};
use soi_wire::{encode_slice, Bootstrap, Rendezvous, WireComm, WireConfig, WireError};
use std::net::TcpStream;
use std::path::PathBuf;

/// How long the launcher waits for a worker's RESULT after the mesh is
/// up. Compute-bound, so much longer than the per-message wire timeout.
const RESULT_TIMEOUT: Duration = Duration::from_secs(300);

/// Serialize one rank's outcome as a RESULT payload.
fn encode_result(rank: usize, times: &PhaseTimes, y: &[Complex64], trace: &[Event]) -> Vec<u8> {
    let mut jsonl = String::new();
    for ev in trace {
        jsonl.push_str(&ev.to_json_line());
        jsonl.push('\n');
    }
    PayloadWriter::new()
        .u32(rank as u32)
        .f64(times.halo)
        .f64(times.conv)
        .f64(times.fft_small)
        .f64(times.fft_large)
        .f64(times.scale)
        .f64(times.pack)
        .f64(times.exchange)
        .bytes(&encode_slice(y))
        .bytes(jsonl.as_bytes())
        .finish()
}

/// Parse a RESULT payload back into `(rank, times, spectrum, events)`.
fn decode_result(
    payload: &[u8],
) -> Result<(usize, PhaseTimes, Vec<Complex64>, Vec<Event>), Box<dyn std::error::Error>> {
    let mut r = PayloadReader::new(payload);
    let rank = r.u32()? as usize;
    let times = PhaseTimes {
        halo: r.f64()?,
        conv: r.f64()?,
        fft_small: r.f64()?,
        fft_large: r.f64()?,
        scale: r.f64()?,
        pack: r.f64()?,
        exchange: r.f64()?,
    };
    let y = soi_wire::decode_slice::<Complex64>(&r.bytes()?)?;
    let jsonl = String::from_utf8(r.bytes()?).map_err(|e| format!("trace not UTF-8: {e}"))?;
    let mut events = Vec::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        events.push(Event::from_json_line(line).map_err(|e| format!("bad trace line: {e}"))?);
    }
    Ok((rank, times, y, events))
}

/// Build the distributed plan both the launcher and every worker agree
/// on, pre-flighting the partition so misconfiguration fails before any
/// socket traffic.
fn wire_plan(geo: &JobGeometry, ranks: usize) -> Result<DistSoiFft, Box<dyn std::error::Error>> {
    let preset = soi_serve::preset_for_digits(geo.digits);
    let params = SoiParams::with_preset(geo.n, geo.p, preset)?;
    let dist = DistSoiFft::new(&params)?;
    dist.segments_per_rank(ranks)?;
    Ok(dist)
}

/// `SOI_FAULT_PHASE=<k>` arms a deterministic crash: the victim rank
/// (`SOI_FAULT_RANK`, default 1) aborts its process — SIGKILL-equivalent
/// on the wire — at phase boundary `k`.
fn fault_from_env() -> Option<FaultPlan> {
    let boundary: usize = std::env::var("SOI_FAULT_PHASE").ok()?.parse().ok()?;
    let victim: usize = std::env::var("SOI_FAULT_RANK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    Some(FaultPlan::abort_process(victim, boundary))
}

/// `soi worker`: one rank of an out-of-process run.
pub fn worker(a: &Args) -> CmdResult {
    a.restrict(&["rendezvous", "n", "p", "digits", "threads", "rejoin", "ckpt-dir"])?;
    let addr = a
        .get("rendezvous")
        .ok_or("worker needs --rendezvous <host:port>")?;
    let geo = JobGeometry::from_args(a, 1 << 16, 8)?;
    let rejoin: Option<usize> = match a.get("rejoin") {
        Some(s) => Some(s.parse().map_err(|_| "--rejoin must be a rank number")?),
        None => None,
    };
    let ckpt_dir: Option<String> = a
        .get("ckpt-dir")
        .map(String::from)
        .or_else(|| std::env::var("SOI_CKPT_DIR").ok());
    // A respawned worker reclaims a dead rank's slot and must never
    // re-run that rank's fault: the launcher scrubs the fault env on
    // respawn, and --rejoin ignores it outright as a second line.
    let fault = if rejoin.is_none() { fault_from_env() } else { None };
    let cfg = WireConfig::from_env();
    let boot = match rejoin {
        None => Bootstrap::join(addr, cfg)?,
        Some(rank) => Bootstrap::rejoin(addr, rank, 1, cfg)?,
    };
    let (mut comm, control) = WireComm::from_bootstrap(boot);
    comm.set_trace(Trace::recording(comm.rank()));
    if rejoin.is_some() {
        // Survivors record the same marker when they re-rendezvous, so
        // the merged trace has one identical rejoin sequence per rank.
        comm.trace().rejoin(1, None);
    }
    match worker_job(&mut comm, &geo, rejoin.is_some(), ckpt_dir.as_deref(), fault) {
        Ok((y, times, new_control)) => {
            let events = comm.trace().drain();
            let payload = encode_result(comm.rank(), &times, &y, &events);
            // After a recovery the original control stream belongs to a
            // dead epoch; the RESULT goes on the reserve-round stream.
            let stream = new_control.as_ref().unwrap_or(&control);
            write_frame(&mut &*stream, TAG_RESULT, &payload, None, cfg.op_timeout)?;
            Ok(())
        }
        Err(e) => {
            let msg = format!("rank {}: {e}", comm.rank());
            // Best effort: the launcher may already be gone.
            let _ = write_frame(&mut &control, TAG_ERROR, msg.as_bytes(), None, cfg.op_timeout);
            Err(msg.into())
        }
    }
}

/// The compute body of a worker rank (separated so failures can be
/// reported over the control stream). Returns the fresh control stream
/// when the run went through a recovery rendezvous.
#[allow(clippy::type_complexity)]
fn worker_job(
    comm: &mut WireComm,
    geo: &JobGeometry,
    rejoined: bool,
    ckpt_dir: Option<&str>,
    fault: Option<FaultPlan>,
) -> Result<(Vec<Complex64>, PhaseTimes, Option<TcpStream>), Box<dyn std::error::Error>> {
    let ranks = comm.size();
    geo.check_ranks("ranks", ranks)?;
    let dist = wire_plan(geo, ranks)?;
    let local_pts = geo.n / ranks;
    let pool = ThreadPool::new(geo.threads);
    let Some(dir) = ckpt_dir else {
        // No checkpoint store: the plain non-recoverable path, byte for
        // byte what ran before fault tolerance existed.
        let x = synthetic(geo.n);
        let local = &x[comm.rank() * local_pts..][..local_pts];
        let (y, times) = dist.run_with(comm, local, ChargePolicy::WallClock, &pool)?;
        return Ok((y, times, None));
    };
    let store = DirStore::new(dir);
    let input: Vec<Complex64> = if rejoined {
        // The dead rank's input comes back from its last checkpoint —
        // the respawned process never sees the original signal source.
        let ckpt = store
            .load(comm.rank())?
            .ok_or_else(|| format!("no checkpoint for rejoined rank {}", comm.rank()))?;
        if ckpt.n as usize != geo.n || ckpt.p as usize != geo.p || ckpt.ranks as usize != ranks {
            return Err(format!(
                "checkpoint geometry (N = {}, P = {}, R = {}) does not match job (N = {}, P = {}, R = {ranks})",
                ckpt.n, ckpt.p, ckpt.ranks, geo.n, geo.p
            )
            .into());
        }
        ckpt.x_local
    } else {
        let x = synthetic(geo.n);
        x[comm.rank() * local_pts..][..local_pts].to_vec()
    };
    let rec = run_wire_recoverable(&dist, comm, &input, ChargePolicy::WallClock, &pool, &store, fault)?;
    Ok((rec.y, rec.times, rec.control))
}

/// `soi launch`: spawn workers, run over real sockets, verify.
pub fn launch(a: &Args) -> CmdResult {
    a.restrict(&["ranks", "n", "p", "digits", "threads", "trace", "ckpt-dir"])?;
    let ranks = a.get_positive("ranks", 4)?;
    let geo = JobGeometry::from_args(a, 1 << 16, 8)?;
    geo.check_ranks("ranks", ranks)?;
    let trace_path: Option<String> = a
        .get("trace")
        .map(String::from)
        .or_else(soi_trace::path_from_env);
    let dist = wire_plan(&geo, ranks)?;

    // Checkpointing is armed by an explicit directory or implicitly by
    // an injected fault (which would be unsurvivable without one). A
    // directory we invented ourselves is cleaned up on success.
    let fault_armed = fault_from_env().is_some();
    let explicit_dir: Option<PathBuf> = a
        .get("ckpt-dir")
        .map(PathBuf::from)
        .or_else(|| std::env::var("SOI_CKPT_DIR").ok().map(PathBuf::from));
    let owned_dir = explicit_dir.is_none() && fault_armed;
    let ckpt_dir: Option<PathBuf> = explicit_dir.or_else(|| {
        fault_armed.then(|| std::env::temp_dir().join(format!("soi-ckpt-{}", std::process::id())))
    });

    let cfg = WireConfig::from_env();
    let rv = Rendezvous::bind("127.0.0.1:0", cfg)?;
    let addr = rv.local_addr()?;
    let exe = std::env::current_exe()?;
    println!(
        "launch   : {ranks} ranks on {addr}, N = {}, P = {}, {} thread(s)/rank{}",
        geo.n,
        geo.p,
        geo.threads,
        match &ckpt_dir {
            Some(d) => format!(", checkpoints in {}", d.display()),
            None => String::new(),
        }
    );
    let t0 = Instant::now();
    let mut children = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        children.push(spawn_worker(&exe, &addr, &geo, None, ckpt_dir.as_deref())?);
    }

    let outcome = collect_results(&rv, ranks, &geo, &exe, &addr, ckpt_dir.as_deref(), &mut children);
    // Always reap the children: on success they have already exited; on
    // failure kill whatever is still running so nothing lingers.
    if outcome.is_err() {
        for c in &mut children {
            let _ = c.kill();
        }
    }
    let mut worker_failure = None;
    for (idx, c) in children.iter_mut().enumerate() {
        let status = c.wait()?;
        if !status.success() && worker_failure.is_none() {
            worker_failure = Some(format!("worker #{idx} exited with {status}"));
        }
    }
    let (wire_y, times, streams, recovered) = match outcome {
        Ok(v) => v,
        Err(e) => match worker_failure {
            // The worker's stderr (already inherited) has the real story.
            Some(w) => return Err(format!("{w}: {e}").into()),
            None => return Err(e),
        },
    };
    let wall = t0.elapsed();
    if recovered {
        println!("recovery : job survived a rank death and replayed from checkpoints (epoch 1)");
    }
    if owned_dir {
        if let Some(dir) = &ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    // Validate the captured traffic exactly like `trace-check` would.
    let set = TraceSet::from_streams(streams);
    let summary = set.validate()?;
    if let Some(path) = &trace_path {
        set.write_jsonl_file(Path::new(path))?;
        println!(
            "trace    : {} events / {} messages / {} bytes on {} ranks -> {path} (conservation OK)",
            summary.events, summary.messages, summary.bytes, summary.ranks,
        );
    } else {
        println!(
            "trace    : {} events / {} messages / {} bytes on {} ranks (conservation OK)",
            summary.events, summary.messages, summary.bytes, summary.ranks,
        );
    }

    // Bitwise cross-check against the in-process simulated cluster.
    let x = synthetic(geo.n);
    let local_pts = geo.n / ranks;
    let (xr, dr) = (&x, &dist);
    let sim_out = Cluster::ideal(ranks).run_collect(move |comm| {
        let local = &xr[comm.rank() * local_pts..][..local_pts];
        dr.run(comm, local, ChargePolicy::WallClock)
            .expect("partition pre-validated")
            .0
    });
    let sim_y: Vec<Complex64> = sim_out.into_iter().flatten().collect();
    let mismatches = wire_y
        .iter()
        .zip(&sim_y)
        .filter(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits())
        .count();
    if wire_y.len() != sim_y.len() || mismatches != 0 {
        return Err(format!(
            "wire spectrum diverges from simnet reference: {mismatches} of {} bins differ",
            sim_y.len()
        )
        .into());
    }

    let t = times
        .iter()
        .fold(PhaseTimes::default(), |acc, t| acc.max_with(t));
    println!(
        "workers  : conv {:.4}s, F_P {:.4}s, exchange {:.4}s, F_M' {:.4}s (max across ranks)",
        t.conv, t.fft_small, t.exchange, t.fft_large
    );
    let exact = soi_fft::fft_forward(&x);
    println!(
        "result   : {} bins in {wall:.2?}; err {:.1e} vs exact FFT; bitwise identical to simnet reference",
        wire_y.len(),
        soi_num::complex::rel_l2_error(&wire_y, &exact)
    );
    Ok(())
}

/// Spawn one worker process. `rejoin` makes it reclaim a dead rank's
/// slot in the recovery epoch, with the fault env scrubbed so the
/// respawn does not inherit its predecessor's death sentence.
fn spawn_worker(
    exe: &std::path::Path,
    addr: &str,
    geo: &JobGeometry,
    rejoin: Option<usize>,
    ckpt_dir: Option<&std::path::Path>,
) -> std::io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "worker",
        "--rendezvous",
        addr,
        "--n",
        &geo.n.to_string(),
        "--p",
        &geo.p.to_string(),
        "--digits",
        &geo.digits.to_string(),
        "--threads",
        &geo.threads.to_string(),
    ]);
    if let Some(dir) = ckpt_dir {
        cmd.arg("--ckpt-dir").arg(dir);
    }
    if let Some(rank) = rejoin {
        cmd.args(["--rejoin", &rank.to_string()]);
        cmd.env_remove("SOI_FAULT_PHASE").env_remove("SOI_FAULT_RANK");
    }
    cmd.stdin(std::process::Stdio::null()).spawn()
}

/// One reader thread per control stream, reporting `(generation, rank,
/// frame-or-error)` — concurrency is what turns a dead worker's EOF
/// into prompt detection instead of a serialized 300 s stall.
fn spawn_result_readers(
    controls: Vec<TcpStream>,
    gen: u32,
    tx: &std::sync::mpsc::Sender<(u32, usize, Result<Vec<u8>, WireError>)>,
) {
    for (slot, control) in controls.into_iter().enumerate() {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let res = control
                .set_read_timeout(Some(RESULT_TIMEOUT))
                .map_err(|e| WireError::Io(e.to_string()))
                .and_then(|()| expect_frame(&mut &control, TAG_RESULT, Some(slot), RESULT_TIMEOUT));
            let _ = tx.send((gen, slot, res));
        });
    }
}

/// Read every worker's RESULT frame, surviving one rank death when a
/// checkpoint directory is armed: the dead rank is respawned with
/// `--rejoin`, a `reserve` round hands every worker a fresh control
/// stream (generation 1), and collection starts over on those. Returns
/// the assembled job plus whether a recovery happened.
#[allow(clippy::type_complexity)]
fn collect_results(
    rv: &Rendezvous,
    ranks: usize,
    geo: &JobGeometry,
    exe: &std::path::Path,
    addr: &str,
    ckpt_dir: Option<&std::path::Path>,
    children: &mut Vec<std::process::Child>,
) -> Result<(Vec<Complex64>, Vec<PhaseTimes>, Vec<Vec<Event>>, bool), Box<dyn std::error::Error>> {
    let controls = rv.serve(ranks)?;
    let (tx, rx) = std::sync::mpsc::channel();
    spawn_result_readers(controls, 0, &tx);
    let local_pts = geo.n / ranks;
    let mut wire_y = vec![Complex64::ZERO; geo.n];
    let mut times = vec![PhaseTimes::default(); ranks];
    let mut streams: Vec<Vec<Event>> = vec![Vec::new(); ranks];
    let mut seen = vec![false; ranks];
    let mut pending = ranks;
    let mut gen = 0u32;
    let mut recovered = false;
    let deadline = Instant::now() + RESULT_TIMEOUT;
    while pending > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("timed out waiting for worker results".into());
        }
        let (g, slot, res) = rx
            .recv_timeout(left)
            .map_err(|_| "timed out waiting for worker results")?;
        if g != gen {
            // A pre-recovery stream finally EOF'd (its worker exited
            // after delivering on the fresh control); nothing to do.
            continue;
        }
        match res {
            Ok(payload) => {
                let (rank, t, y, events) = decode_result(&payload)?;
                if rank >= ranks || seen[rank] {
                    return Err(format!("duplicate or out-of-range result for rank {rank}").into());
                }
                if y.len() != local_pts {
                    return Err(format!(
                        "rank {rank} returned {} points, expected {local_pts}",
                        y.len()
                    )
                    .into());
                }
                seen[rank] = true;
                wire_y[rank * local_pts..(rank + 1) * local_pts].copy_from_slice(&y);
                times[rank] = t;
                streams[rank] = events;
                pending -= 1;
            }
            Err(e) => {
                if recovered {
                    return Err(format!("rank {slot} died during recovery (double fault): {e}").into());
                }
                let Some(dir) = ckpt_dir else {
                    return Err(format!(
                        "worker rank {slot} died: {e} (arm --ckpt-dir to make jobs recoverable)"
                    )
                    .into());
                };
                println!("fault    : rank {slot} died ({e}); respawning into epoch 1");
                children.push(spawn_worker(exe, addr, geo, Some(slot), Some(dir))?);
                // Survivors are already re-rendezvousing (their
                // completion barrier or data path failed); collect all
                // R rejoin claims and restart collection on the fresh
                // control streams.
                let fresh = rv.reserve(ranks, 1)?;
                gen += 1;
                recovered = true;
                pending = ranks;
                seen = vec![false; ranks];
                spawn_result_readers(fresh, gen, &tx);
            }
        }
    }
    Ok((wire_y, times, streams, recovered))
}

/// `soi trace-view`: JSONL trace -> Chrome trace-event JSON.
pub fn trace_view(a: &Args) -> CmdResult {
    a.restrict(&["file", "out"])?;
    let path = a
        .get("file")
        .ok_or("trace-view needs --file <trace.jsonl>")?;
    let set = TraceSet::read_jsonl_file(Path::new(path))?;
    let doc = soi_trace::to_chrome_trace(&set);
    match a.get("out") {
        Some(out) => {
            std::fs::write(out, &doc)?;
            let events: usize = set.ranks.iter().map(Vec::len).sum();
            println!(
                "{out}: {events} events from {} ranks — open in chrome://tracing or ui.perfetto.dev",
                set.ranks.iter().filter(|s| !s.is_empty()).count()
            );
        }
        None => print!("{doc}"),
    }
    Ok(())
}

/// `soi info`.
/// `soi serve`: run the daemon (or, with `--stats <addr>`, query one).
pub fn serve(a: &Args) -> CmdResult {
    a.restrict(&["addr", "threads", "queue", "engines", "idle-ms", "stats"])?;
    if let Some(addr) = a.get("stats") {
        let mut client = soi_serve::ServeClient::connect(addr, Duration::from_secs(10))?;
        let snap = client.stats()?;
        let _ = client.bye();
        print_serve_stats(&snap);
        return Ok(());
    }
    let mut cfg = soi_serve::ServeConfig::from_env();
    cfg.addr = a.get("addr").unwrap_or("127.0.0.1:0").to_string();
    cfg.threads = a.get_positive("threads", 1)?;
    cfg.queue_cap = a.get_usize("queue", cfg.queue_cap)?;
    cfg.engine_cap = a.get_positive("engines", cfg.engine_cap)?;
    let idle_ms = a.get_positive("idle-ms", cfg.idle_timeout.as_millis() as usize)?;
    cfg.idle_timeout = Duration::from_millis(idle_ms as u64);
    let mut server = soi_serve::Server::start(cfg)?;
    // The verify script and the CI smoke poll this exact line for the
    // resolved port; stdout is line-buffered even when redirected.
    println!("serve    : listening on {}", server.addr());
    println!(
        "serve    : idle timeout {idle_ms} ms (send a shutdown request or \
         SIGKILL to stop)"
    );
    server.join();
    let snap = server.stats();
    let answered: u64 = snap.tenants.iter().map(|t| t.ok).sum();
    println!("serve    : drained and stopped; {answered} request(s) answered");
    print_serve_stats(&snap);
    Ok(())
}

fn print_serve_stats(s: &soi_serve::StatsSnapshot) {
    println!(
        "serve    : connections {} total / {} active / {} idle-closed / {} lost",
        s.connections, s.active_connections, s.idle_closed, s.peer_lost
    );
    println!(
        "serve    : batches {} ({} requests, max {}/batch), queue depth {}",
        s.batches, s.batched_requests, s.max_batch, s.queue_depth
    );
    println!(
        "serve    : plan cache {} hits / {} misses / {} evictions; engines {} built / {} evicted",
        s.plan_hits, s.plan_misses, s.plan_evictions, s.engine_builds, s.engine_evictions
    );
    for t in &s.tenants {
        println!(
            "serve    : tenant {:<12} req {:>5}  ok {:>5}  shed {:>4}  expired {:>4}  \
             bad {:>4}  in {:>10} B  out {:>10} B  compute {:.3} ms",
            t.tenant,
            t.requests,
            t.ok,
            t.shed,
            t.expired,
            t.rejected,
            t.bytes_in,
            t.bytes_out,
            t.compute_ns as f64 / 1e6
        );
    }
}

/// `soi request`: issue transform requests to a running daemon.
pub fn request(a: &Args) -> CmdResult {
    a.restrict(&[
        "addr", "n", "p", "digits", "input", "segment", "band", "deadline-ms", "tenant",
        "count", "check", "shutdown",
    ])?;
    let addr = a.get("addr").ok_or("--addr <host:port> is required")?;
    let mut client = soi_serve::ServeClient::connect(addr, Duration::from_secs(120))?;
    if a.get_usize("shutdown", 0)? == 1 {
        client.shutdown()?;
        println!("request  : daemon acknowledged shutdown");
        return Ok(());
    }
    let geo = JobGeometry::from_args(a, 1 << 14, 4)?;
    let JobGeometry { n, p, digits, .. } = geo;
    let real = match a.get("input").unwrap_or("complex") {
        "complex" => false,
        "real" => true,
        other => return Err(format!("unknown input kind `{other}` (complex|real)").into()),
    };
    let segment = a.get("segment");
    let band = a.get("band");
    if segment.is_some() && band.is_some() {
        return Err("--segment and --band are mutually exclusive".into());
    }
    let parse = |key: &str, v: &str| -> Result<usize, String> {
        v.parse().map_err(|_| format!("--{key} must be an integer"))
    };
    let (kind, arg) = match (real, segment, band) {
        (false, None, None) => (soi_serve::RequestKind::Full, 0),
        (false, Some(s), None) => (soi_serve::RequestKind::Segment, parse("segment", s)?),
        (false, None, Some(k)) => (soi_serve::RequestKind::Band, parse("band", k)?),
        (true, None, None) => (soi_serve::RequestKind::RealFull, 0),
        (true, Some(s), None) => (soi_serve::RequestKind::RealSegment, parse("segment", s)?),
        (true, None, Some(k)) => (soi_serve::RequestKind::RealBand, parse("band", k)?),
        _ => unreachable!("segment/band exclusivity checked above"),
    };
    let samples = if real {
        soi_serve::Samples::Real(synthetic_real(n))
    } else {
        soi_serve::Samples::Complex(synthetic(n))
    };
    let count = a.get_positive("count", 1)? as u64;
    let req = soi_serve::Request {
        id: 0,
        tenant: a.get("tenant").unwrap_or("cli").to_string(),
        n,
        p,
        digits,
        kind,
        arg,
        deadline_ms: a.get_usize("deadline-ms", 0)? as u64,
        samples,
    };
    for id in 0..count {
        client.send_request(&soi_serve::Request { id, ..req.clone() })?;
    }
    let mut responses = std::collections::BTreeMap::new();
    for _ in 0..count {
        match client.recv()? {
            soi_serve::Reply::Ok(resp) => {
                responses.insert(resp.id, resp);
            }
            soi_serve::Reply::Rejected(rej) => {
                return Err(format!(
                    "request {} rejected ({}): {}",
                    rej.id,
                    rej.code.name(),
                    rej.message
                )
                .into())
            }
            other => return Err(format!("unexpected reply: {other:?}").into()),
        }
    }
    let _ = client.bye();
    let total_ns: u64 = responses.values().map(|r| r.compute_ns).sum();
    let bins = responses.values().next().map(|r| r.bins.len()).unwrap_or(0);
    println!(
        "request  : {count} {} response(s), {bins} bins each, server compute {:.3} ms total",
        kind.name(),
        total_ns as f64 / 1e6
    );
    if a.get_usize("check", 0)? == 1 {
        // The daemon's own dispatch, run here serially: the bitwise
        // ground truth for `--check`.
        let mut engine = soi_serve::Engine::build(n, p, digits, Arc::new(ThreadPool::serial()))?;
        let reference = engine.execute(&req)?;
        for resp in responses.values() {
            if resp.bins.len() != reference.len() {
                return Err(format!(
                    "check failed: response {} has {} bins, local transform has {}",
                    resp.id,
                    resp.bins.len(),
                    reference.len()
                )
                .into());
            }
            for (i, (got, want)) in resp.bins.iter().zip(reference).enumerate() {
                if got.re.to_bits() != want.re.to_bits() || got.im.to_bits() != want.im.to_bits()
                {
                    return Err(format!(
                        "check failed: response {} bin {i} differs from the local \
                         transform ({got:?} vs {want:?})",
                        resp.id
                    )
                    .into());
                }
            }
        }
        println!("request  : check ok — all responses bitwise-identical to the local transform");
    }
    Ok(())
}

/// The real-valued synthetic signal (`soi transform --input real` uses
/// the same one, so spectra are comparable across verbs).
fn synthetic_real(n: usize) -> Vec<f64> {
    (0..n)
        .map(|j| {
            let t = j as f64;
            (t * 0.37).sin() + 0.4 * (t * 1.7).cos()
        })
        .collect()
}

pub fn info(a: &Args) -> CmdResult {
    a.restrict(&[])?;
    println!("soi {} — low-communication 1-D FFT", env!("CARGO_PKG_VERSION"));
    println!("reproduction of Tang, Park, Kim, Petrov — SC 2012 best paper");
    println!("crates: soi-num, soi-fft, soi-window, soi-simnet, soi-core, soi-dist");
    Ok(())
}
