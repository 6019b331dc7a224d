//! Wire-transport load generator: drives a [`ptnc_wire::WireServer`]
//! over real loopback sockets with many concurrent clients, twice —
//! once on a clean network and once through the deterministic chaos
//! proxy — and reports
//!
//! * wire requests/sec and timesteps/sec (clean phase),
//! * client-observed request latency (p50/p99, measured at the caller),
//! * framing overhead (frames and bytes per request),
//! * chaos-phase recovery: how many requests survive fault injection,
//!   how many resolve as typed errors, retries and reconnects spent,
//! * bitwise parity: every wire answer is compared against the
//!   in-process scheduler answer.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin wire_throughput
//! PNC_SMOKE=1 PNC_WIRE_ENFORCE=1 cargo run -p ptnc-bench --release --bin wire_throughput
//! ```
//!
//! Knobs: `PNC_SMOKE=1` shrinks the workload for CI; `PNC_WIRE_STREAMS`
//! (client threads), `PNC_WIRE_REQUESTS` (requests per stream),
//! `PNC_WIRE_STEPS` (timesteps per request), `PNC_WIRE_CHAOS_PCT`
//! (per-chunk fault probability in the chaos phase, percent) and
//! `PNC_WIRE_SEED` override it. `PNC_WIRE_ENFORCE=1` exits non-zero if
//! any clean-phase request fails, if any answer (either phase) diverges
//! from the in-process oracle, if the chaos phase recovers nothing, or
//! if any request outlives its liveness bound (the CI gate). A JSON
//! summary is written to `PNC_WIRE_JSON` (default `BENCH_wire.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use ptnc_bench::{or_exit, print_row, print_rule, Config, ConfigError};
use ptnc_serve::{BatchConfig, ModelRegistry, Server};
use ptnc_tensor::init;
use ptnc_wire::{
    ChaosConfig, ChaosProxy, Endpoint, FaultKind, WireClient, WireClientConfig, WireServer,
    WireServerConfig,
};

const DIM: usize = 3;
const CLASSES: usize = 4;
const HIDDEN: usize = 6;

/// Any single request must resolve (Ok or typed error) well inside this,
/// or the transport has a liveness hole.
const LIVENESS_BOUND: Duration = Duration::from_secs(30);

struct Workload {
    streams: usize,
    requests: usize,
    steps: usize,
    chaos_pct: usize,
    seed: u64,
}

impl Workload {
    fn parse(config: &Config) -> Result<Self, ConfigError> {
        let smoke = config.smoke();
        let (streams, requests, steps) = if smoke { (2, 24, 12) } else { (4, 150, 32) };
        Ok(Workload {
            streams: config.parse_or("PNC_WIRE_STREAMS", streams)?,
            requests: config.parse_or("PNC_WIRE_REQUESTS", requests)?,
            steps: config.parse_or("PNC_WIRE_STEPS", steps)?,
            chaos_pct: config.parse_or("PNC_WIRE_CHAOS_PCT", 10)?,
            seed: config.parse_or("PNC_WIRE_SEED", 0xC4A0)?,
        })
    }
}

fn request_steps(stream: usize, t: usize) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| ((stream * 211 + i) as f64 * 0.19).sin())
        .collect()
}

fn client_config(seed: u64) -> WireClientConfig {
    WireClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(5),
        max_retries: 8,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(25),
        breaker_threshold: u32::MAX,
        jitter_seed: seed,
        ..WireClientConfig::default()
    }
}

#[derive(Default)]
struct PhaseResult {
    ok: u64,
    typed_errors: u64,
    parity_failures: u64,
    liveness_violations: u64,
    retries: u64,
    reconnects: u64,
    elapsed: Duration,
    latencies_micros: Vec<u64>,
}

/// Drives `wl.streams` clients × `wl.requests` each against `endpoint`,
/// comparing every answer bitwise against the in-process oracle.
fn drive(server: &Server, endpoint: &Endpoint, wl: &Workload) -> PhaseResult {
    let ok = AtomicU64::new(0);
    let typed_errors = AtomicU64::new(0);
    let parity_failures = AtomicU64::new(0);
    let liveness_violations = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let reconnects = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::with_capacity(wl.streams * wl.requests));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..wl.streams {
            let ok = &ok;
            let typed_errors = &typed_errors;
            let parity_failures = &parity_failures;
            let liveness_violations = &liveness_violations;
            let retries = &retries;
            let reconnects = &reconnects;
            let latencies = &latencies;
            let endpoint = endpoint.clone();
            scope.spawn(move || {
                let steps = request_steps(s, wl.steps);
                let oracle: Vec<u64> = server
                    .infer("oracle", &steps)
                    .expect("oracle inference succeeds")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let mut client = WireClient::new(endpoint, client_config(wl.seed ^ s as u64));
                let mut local_lat = Vec::with_capacity(wl.requests);
                for _ in 0..wl.requests {
                    let t0 = Instant::now();
                    let outcome = client.submit(&format!("wire-{s}"), &steps);
                    let took = t0.elapsed();
                    if took > LIVENESS_BOUND {
                        liveness_violations.fetch_add(1, Ordering::Relaxed);
                    }
                    match outcome {
                        Ok(c) => {
                            let bits: Vec<u64> = c.logits.iter().map(|v| v.to_bits()).collect();
                            if bits != oracle {
                                parity_failures.fetch_add(1, Ordering::Relaxed);
                            }
                            ok.fetch_add(1, Ordering::Relaxed);
                            local_lat.push(took.as_micros() as u64);
                        }
                        Err(_) => {
                            typed_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let stats = client.stats();
                retries.fetch_add(stats.retries, Ordering::Relaxed);
                reconnects.fetch_add(stats.connects.saturating_sub(1), Ordering::Relaxed);
                latencies.lock().unwrap().extend_from_slice(&local_lat);
            });
        }
    });
    let mut latencies_micros = latencies.into_inner().unwrap();
    latencies_micros.sort_unstable();
    PhaseResult {
        ok: ok.into_inner(),
        typed_errors: typed_errors.into_inner(),
        parity_failures: parity_failures.into_inner(),
        liveness_violations: liveness_violations.into_inner(),
        retries: retries.into_inner(),
        reconnects: reconnects.into_inner(),
        elapsed: start.elapsed(),
        latencies_micros,
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let config = Config::from_process();
    let wl = or_exit(Workload::parse(&config));
    config.with_run_manifest("wire_throughput", || run(&config, &wl));
}

fn run(config: &Config, wl: &Workload) {
    let severity = wl.chaos_pct as f64 / 100.0;
    eprintln!(
        "wire_throughput: {} streams x {} requests x {} steps, chaos severity {:.2}, seed {:#x}",
        wl.streams, wl.requests, wl.steps, severity, wl.seed
    );

    let dir = std::env::temp_dir().join(format!("ptnc-wire-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("model.json");
    let json = persist::to_json(&PrintedModel::adapt_pnc(
        DIM,
        HIDDEN,
        CLASSES,
        &mut init::rng(1),
    ));
    persist::write_atomic(&path, json.as_bytes()).expect("seed snapshot");

    let reg = Arc::new(ModelRegistry::open(&path).expect("open registry"));
    let server = Arc::new(
        Server::start(
            Arc::clone(&reg),
            BatchConfig {
                max_batch: wl.streams.clamp(2, 32),
                max_steps: wl.steps.max(64),
                workers: 2,
                ..BatchConfig::default()
            },
        )
        .expect("start server"),
    );
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig {
            max_connections: wl.streams * 2 + 8,
            read_deadline: Duration::from_millis(500),
            write_deadline: Duration::from_millis(500),
            request_deadline: Duration::from_secs(5),
            idle_poll: Duration::from_millis(5),
            ..WireServerConfig::default()
        },
    )
    .expect("bind wire server");

    // Phase 1: clean network, straight at the server.
    let clean = drive(&server, wire.endpoint(), wl);
    let clean_stats = wire.stats();

    // Phase 2: same load through the chaos proxy, all fault kinds.
    let proxy = ChaosProxy::start(
        wire.endpoint(),
        ChaosConfig {
            seed: wl.seed,
            severity,
            kinds: FaultKind::ALL.to_vec(),
            max_delay: Duration::from_millis(10),
        },
    )
    .expect("start chaos proxy");
    let chaos = drive(&server, proxy.endpoint(), wl);
    let chaos_faults = proxy.stats();
    proxy.shutdown();
    let all_stats = wire.stats();
    wire.shutdown();

    let total = (wl.streams * wl.requests) as u64;
    let requests_per_sec = clean.ok as f64 / clean.elapsed.as_secs_f64().max(1e-9);
    let timesteps_per_sec = requests_per_sec * wl.steps as f64;
    let clean_p50 = quantile(&clean.latencies_micros, 0.50);
    let clean_p99 = quantile(&clean.latencies_micros, 0.99);
    let chaos_p50 = quantile(&chaos.latencies_micros, 0.50);
    let chaos_p99 = quantile(&chaos.latencies_micros, 0.99);
    let recovery = chaos.ok as f64 / total.max(1) as f64;

    let widths = [30usize, 14];
    print_row(&["metric", "value"].map(String::from), &widths);
    print_rule(&widths);
    let rows: [(&str, String); 14] = [
        ("clean requests ok", format!("{}/{total}", clean.ok)),
        ("clean requests/sec", format!("{requests_per_sec:.1}")),
        ("clean timesteps/sec", format!("{timesteps_per_sec:.0}")),
        ("clean latency p50 (µs)", clean_p50.to_string()),
        ("clean latency p99 (µs)", clean_p99.to_string()),
        (
            "clean frames read (server)",
            clean_stats.frames_read.to_string(),
        ),
        ("chaos requests ok", format!("{}/{total}", chaos.ok)),
        ("chaos typed errors", chaos.typed_errors.to_string()),
        ("chaos recovery rate", format!("{:.3}", recovery)),
        (
            "chaos latency p50/p99 (µs)",
            format!("{chaos_p50}/{chaos_p99}"),
        ),
        (
            "chaos retries / reconnects",
            format!("{}/{}", chaos.retries, chaos.reconnects),
        ),
        (
            "chaos faults injected",
            chaos_faults.total_faults().to_string(),
        ),
        (
            "crc rejected / proto errors",
            format!("{}/{}", all_stats.crc_rejected, all_stats.protocol_errors),
        ),
        (
            "parity failures (both phases)",
            (clean.parity_failures + chaos.parity_failures).to_string(),
        ),
    ];
    for (k, v) in &rows {
        print_row(&[k.to_string(), v.clone()], &widths);
    }
    println!();
    println!(
        "chaos injections: {} delays, {} splits, {} corruptions, {} truncations, {} duplicates, {} drops over {} chunks",
        chaos_faults.delays,
        chaos_faults.splits,
        chaos_faults.corruptions,
        chaos_faults.truncations,
        chaos_faults.duplicates,
        chaos_faults.drops,
        chaos_faults.chunks,
    );

    ptnc_telemetry::gauge("wire.requests_per_sec", requests_per_sec);
    ptnc_telemetry::gauge("wire.timesteps_per_sec", timesteps_per_sec);
    ptnc_telemetry::gauge("wire.latency.p50_micros", clean_p50 as f64);
    ptnc_telemetry::gauge("wire.latency.p99_micros", clean_p99 as f64);
    ptnc_telemetry::gauge("wire.chaos.recovery_rate", recovery);
    ptnc_telemetry::gauge("wire.chaos.retries", chaos.retries as f64);
    ptnc_telemetry::gauge("wire.chaos.faults", chaos_faults.total_faults() as f64);
    ptnc_telemetry::gauge("wire.crc_rejected", all_stats.crc_rejected as f64);
    server.stats().emit_telemetry();

    let json_path = config.get("PNC_WIRE_JSON").unwrap_or("BENCH_wire.json");
    let json = format!(
        "{{\n  \"bench\": \"wire_throughput\",\n  \"streams\": {},\n  \"requests_per_stream\": {},\n  \"steps_per_request\": {},\n  \"chaos_severity_pct\": {},\n  \"seed\": {},\n  \"clean\": {{\n    \"ok\": {},\n    \"typed_errors\": {},\n    \"requests_per_sec\": {:.3},\n    \"timesteps_per_sec\": {:.1},\n    \"latency_p50_micros\": {},\n    \"latency_p99_micros\": {},\n    \"frames_read\": {},\n    \"frames_written\": {}\n  }},\n  \"chaos\": {{\n    \"ok\": {},\n    \"typed_errors\": {},\n    \"recovery_rate\": {:.4},\n    \"latency_p50_micros\": {},\n    \"latency_p99_micros\": {},\n    \"retries\": {},\n    \"reconnects\": {},\n    \"faults_injected\": {},\n    \"delays\": {},\n    \"splits\": {},\n    \"corruptions\": {},\n    \"truncations\": {},\n    \"duplicates\": {},\n    \"drops\": {}\n  }},\n  \"crc_rejected\": {},\n  \"protocol_errors\": {},\n  \"deadline_closes\": {},\n  \"parity_failures\": {},\n  \"liveness_violations\": {}\n}}\n",
        wl.streams,
        wl.requests,
        wl.steps,
        wl.chaos_pct,
        wl.seed,
        clean.ok,
        clean.typed_errors,
        requests_per_sec,
        timesteps_per_sec,
        clean_p50,
        clean_p99,
        clean_stats.frames_read,
        clean_stats.frames_written,
        chaos.ok,
        chaos.typed_errors,
        recovery,
        chaos_p50,
        chaos_p99,
        chaos.retries,
        chaos.reconnects,
        chaos_faults.total_faults(),
        chaos_faults.delays,
        chaos_faults.splits,
        chaos_faults.corruptions,
        chaos_faults.truncations,
        chaos_faults.duplicates,
        chaos_faults.drops,
        all_stats.crc_rejected,
        all_stats.protocol_errors,
        all_stats.deadline_closes,
        clean.parity_failures + chaos.parity_failures,
        clean.liveness_violations + chaos.liveness_violations,
    );
    std::fs::write(json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    let _ = std::fs::remove_dir_all(&dir);

    if config.flag("PNC_WIRE_ENFORCE") {
        let mut gate_failed = false;
        if clean.ok != total || clean.typed_errors > 0 {
            eprintln!(
                "PNC_WIRE_ENFORCE: clean phase lost requests ({}/{total} ok) — failing",
                clean.ok
            );
            gate_failed = true;
        }
        if clean.parity_failures + chaos.parity_failures > 0 {
            eprintln!("PNC_WIRE_ENFORCE: wire answers diverged from in-process answers — failing");
            gate_failed = true;
        }
        if chaos.ok == 0 {
            eprintln!(
                "PNC_WIRE_ENFORCE: nothing survived the chaos phase — recovery is broken — failing"
            );
            gate_failed = true;
        }
        if chaos.ok + chaos.typed_errors != total {
            eprintln!("PNC_WIRE_ENFORCE: some chaos-phase requests neither succeeded nor failed typed — failing");
            gate_failed = true;
        }
        if clean.liveness_violations + chaos.liveness_violations > 0 {
            eprintln!("PNC_WIRE_ENFORCE: a request outlived the liveness bound — failing");
            gate_failed = true;
        }
        if severity > 0.0 && chaos_faults.total_faults() == 0 {
            eprintln!("PNC_WIRE_ENFORCE: the chaos phase injected nothing — the gate tested nothing — failing");
            gate_failed = true;
        }
        if gate_failed {
            std::process::exit(1);
        }
        eprintln!("PNC_WIRE_ENFORCE: all gates passed");
    }
}
