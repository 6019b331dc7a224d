//! `wire_churn`: a `WireServer` on TCP loopback in front of the in-process
//! server, driven by two `WireClient` connections, each on its own thread
//! in a closed loop (one call at a time, waiting for the reply).
//!
//! Each thread repeats a cycle of one-shot 16-step submissions followed by
//! one `ResetOnReload` session lifecycle (open, a fixed number of 8-step
//! chunks, close). Every fixed number of cycles thread 0 pushes the other
//! of two snapshots through `ModelRegistry::redeploy_json`, so the session
//! and model registries take writes beside reads. Every one-shot answer
//! must equal the local answer of an engine version live during the call;
//! every session lifecycle no reload crossed must equal a local replay.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptnc_infer::{InferModel, StreamSession};
use ptnc_serve::{ReloadOutcome, ReloadPolicy, Server};
use ptnc_wire::frame;
use ptnc_wire::{
    ClientStats, Endpoint, Request, Response, WireClient, WireClientConfig, WireError, WireServer,
    WireServerConfig, HEADER_LEN,
};

use crate::phase::{Counters, PhaseCount};
use crate::serving::{self, Deployment};
use crate::stats::{self, Histogram};
use crate::trace::{self, Span, SpanLog};
use crate::{same_bits, sys, Ctx, Outcome};

const TENANT: &str = "churn";
const THREADS: usize = 2;

/// The workload's fixed op mix.
#[derive(Debug, Clone, Copy)]
struct Mix {
    submit_steps: usize,
    chunk_steps: usize,
    oneshots: usize,
    chunks: usize,
    redeploy_every: usize,
}

// Field order is drop order: clients hang up before the wire server
// drains, and the wire server stops before the in-process server.
struct Setup {
    clients: Vec<WireClient>,
    wire: WireServer,
    dep: Deployment,
    /// Snapshots A and B; version `v` of the registry serves `json[(v + 1) % 2]`.
    json: [String; 2],
    engines: [Arc<InferModel>; 2],
    windows: Vec<Vec<f64>>,
    chunks: Vec<Vec<f64>>,
    /// Expected one-shot answers per engine, per window.
    expected: [Vec<Vec<f64>>; 2],
    /// Cycles thread 0 has run over the wire, across rounds, so redeploys
    /// keep their spacing however the run is cut into rounds.
    cycles: AtomicU64,
}

/// Which of the two snapshots registry version `v` serves.
fn engine_of(version: u64) -> usize {
    ((version + 1) % 2) as usize
}

fn set_up(ctx: &Ctx, mix: &Mix, pool: usize) -> Result<Setup, String> {
    let json = [
        serving::snapshot_json(ctx.seed, None),
        serving::snapshot_json(ctx.seed ^ 0xB, None),
    ];
    let dep = Deployment::start(&ctx.dir, &json[0])?;
    let addr = "127.0.0.1:0".parse().expect("loopback address parses");
    let wire = WireServer::bind(
        Arc::clone(&dep.server),
        &Endpoint::Tcp(addr),
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind wire server: {e}"))?;
    let engines = [serving::compile(&json[0])?, serving::compile(&json[1])?];
    let windows = serving::windows(ctx.seed ^ 0xC4_0125, pool, mix.submit_steps);
    let chunks = serving::windows(ctx.seed ^ 0xC4_0126, pool, mix.chunk_steps);
    let expect = |e: &InferModel| {
        windows
            .iter()
            .map(|w| {
                e.run_batch(w, 1)
                    .map_err(|e| format!("local reference: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let expected = [expect(&engines[0])?, expect(&engines[1])?];
    let mut clients: Vec<WireClient> = (0..THREADS)
        .map(|_| WireClient::new(wire.endpoint().clone(), WireClientConfig::default()))
        .collect();
    for c in &mut clients {
        c.ping().map_err(|e| format!("connect: {e}"))?;
        for w in windows.iter().take(32) {
            c.submit(TENANT, w).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(Setup {
        clients,
        wire,
        dep,
        json,
        engines,
        windows,
        chunks,
        expected,
        cycles: AtomicU64::new(0),
    })
}

/// What one thread saw in one phase.
#[derive(Default)]
struct ThreadStats {
    phase: PhaseCount,
    /// Per-call latency in µs, all call kinds.
    call_us: Histogram,
    timesteps: u64,
    /// Successful submit and chunk calls: the lanes the server batched.
    batched_ok: u64,
    wrong: u64,
    checked: u64,
    unchecked_lifecycles: u64,
    busy: u64,
    errors: u64,
    reload_us: Vec<f64>,
    swap_us: Vec<f64>,
    /// Sum and count of queue-depth samples, one per cycle.
    depth: (f64, u64),
    spans: Vec<Span>,
}

/// The calls a thread makes, over the wire or straight into the server.
/// Straight calls note when their submit returned, so the wait for the
/// ticket can be traced apart from the submit.
enum Caller<'a> {
    Wire(&'a mut WireClient),
    Local(&'a Server, &'a Cell<Option<Instant>>),
}

enum SessionRef {
    Wire(ptnc_wire::SessionHandle),
    Local(ptnc_serve::SessionId),
}

impl Caller<'_> {
    fn submit(&mut self, steps: &[f64]) -> Result<Vec<f64>, String> {
        match self {
            Caller::Wire(c) => c.submit(TENANT, steps).map(|r| r.logits).map_err(wire_err),
            Caller::Local(s, split) => {
                let t = s.submit(TENANT, steps).map_err(serve_err)?;
                split.set(Some(Instant::now()));
                t.wait().map_err(serve_err)
            }
        }
    }

    fn open(&mut self) -> Result<SessionRef, String> {
        match self {
            Caller::Wire(c) => c
                .open_session(TENANT, ReloadPolicy::ResetOnReload)
                .map(SessionRef::Wire)
                .map_err(wire_err),
            Caller::Local(s, _) => s
                .open_session(TENANT, ReloadPolicy::ResetOnReload)
                .map(SessionRef::Local)
                .map_err(serve_err),
        }
    }

    fn chunk(&mut self, id: &SessionRef, steps: &[f64]) -> Result<Vec<f64>, String> {
        match (self, id) {
            (Caller::Wire(c), SessionRef::Wire(h)) => c
                .submit_chunk(*h, steps)
                .map(|r| r.logits)
                .map_err(wire_err),
            (Caller::Local(s, split), SessionRef::Local(id)) => {
                let t = s.submit_chunk(*id, steps).map_err(serve_err)?;
                split.set(Some(Instant::now()));
                t.wait().map_err(serve_err)
            }
            _ => unreachable!("session handles stay with their caller"),
        }
    }

    fn close(&mut self, id: &SessionRef) -> Result<bool, String> {
        match (self, id) {
            (Caller::Wire(c), SessionRef::Wire(h)) => c.close_session(*h).map_err(wire_err),
            (Caller::Local(s, _), SessionRef::Local(id)) => Ok(s.close_session(*id)),
            _ => unreachable!("session handles stay with their caller"),
        }
    }

    fn names(&self) -> [&'static str; 4] {
        match self {
            Caller::Wire(_) => [
                "wire.call.submit",
                "wire.call.chunk",
                "wire.call.open",
                "wire.call.close",
            ],
            Caller::Local(..) => [
                "serve.infer",
                "serve.chunk",
                "serve.open_session",
                "serve.close_session",
            ],
        }
    }
}

fn wire_err(e: WireError) -> String {
    e.to_string()
}

fn serve_err(e: ptnc_serve::ServingError) -> String {
    e.to_string()
}

fn is_busy(e: &str) -> bool {
    e.to_lowercase().contains("busy")
}

/// One thread's closed loop: cycles of one-shots and a session lifecycle
/// until `end`, with thread 0 redeploying every `mix.redeploy_every`
/// cycles when `redeploy` is set.
#[allow(clippy::too_many_arguments)]
fn thread_loop(
    s: &Setup,
    mut caller: Caller<'_>,
    t: usize,
    mix: Mix,
    (end, redeploy): (Instant, bool),
    trace: ((bool, u64), Instant),
    stop: &AtomicBool,
) -> ThreadStats {
    let mut st = ThreadStats::default();
    let mut log = SpanLog::new(trace.0, trace.1, 10 + t as u32);
    let names = caller.names();
    let split = match &caller {
        Caller::Local(_, split) => Some(*split),
        Caller::Wire(_) => None,
    };
    let registry = &s.dep.registry;
    let pool = s.windows.len();
    let mut op = (t as u64) << 48;
    let mut cursor = t * 7919;
    let mut scratch = s.engines[0].make_scratch(1).expect("batch 1 is positive");
    let mut replayed = vec![0.0; s.engines[0].spec().classes];
    // Times one call as a root span, counts its outcome and timesteps.
    let call = |st: &mut ThreadStats,
                log: &mut SpanLog,
                op: &mut u64,
                name: &'static str,
                steps: usize,
                f: &mut dyn FnMut() -> Result<bool, String>| {
        *op += 1;
        let t0 = Instant::now();
        let r = f();
        let done = Instant::now();
        let root = log.root(name, *op, t0, done);
        if let Some(mid) = split.and_then(Cell::take) {
            log.record("serve.submit", *op, root, t0, mid);
            log.record("serve.wait", *op, root, mid, done);
        }
        st.call_us.record((done - t0).as_secs_f64() * 1e6);
        let ok = match r {
            Ok(ok) => ok,
            Err(e) => {
                st.errors += 1;
                if is_busy(&e) {
                    st.busy += 1;
                }
                false
            }
        };
        st.phase.add(ok);
        if ok && steps > 0 {
            st.batched_ok += 1;
            st.timesteps += steps as u64;
        }
        ok
    };
    while Instant::now() < end && !stop.load(Ordering::Relaxed) {
        for _ in 0..mix.oneshots {
            let i = cursor % pool;
            cursor += 1;
            let v0 = registry.version();
            let mut answer = Vec::new();
            call(
                &mut st,
                &mut log,
                &mut op,
                names[0],
                mix.submit_steps,
                &mut || {
                    answer = caller.submit(&s.windows[i])?;
                    Ok(true)
                },
            );
            let v1 = registry.version();
            if !answer.is_empty() {
                st.checked += 1;
                let live = (v0..=v1).any(|v| same_bits(&answer, &s.expected[engine_of(v)][i]));
                if !live {
                    st.wrong += 1;
                }
            }
        }
        // A ResetOnReload session lifecycle.
        let v_open = registry.version();
        let mut id = None;
        call(&mut st, &mut log, &mut op, names[2], 0, &mut || {
            id = Some(caller.open()?);
            Ok(true)
        });
        if let Some(id) = id {
            let mut answers = Vec::with_capacity(mix.chunks);
            let first = cursor;
            for k in 0..mix.chunks {
                let chunk = &s.chunks[(first + k) % pool];
                call(
                    &mut st,
                    &mut log,
                    &mut op,
                    names[1],
                    mix.chunk_steps,
                    &mut || {
                        answers.push(caller.chunk(&id, chunk)?);
                        Ok(true)
                    },
                );
            }
            cursor += mix.chunks;
            let v_close = registry.version();
            call(&mut st, &mut log, &mut op, names[3], 0, &mut || {
                caller.close(&id)
            });
            if v_open == v_close && answers.len() == mix.chunks {
                let mut local: StreamSession = s.engines[engine_of(v_open)].session();
                for (k, got) in answers.iter().enumerate() {
                    let chunk = &s.chunks[(first + k) % pool];
                    local
                        .run_chunk(chunk, &mut scratch, &mut replayed)
                        .expect("local replay shapes match");
                    st.checked += 1;
                    if !same_bits(&replayed, got) {
                        st.wrong += 1;
                    }
                }
            } else {
                st.unchecked_lifecycles += 1;
            }
        }
        st.depth.0 += s.dep.server.queue_depth() as f64;
        st.depth.1 += 1;
        let cycle = if redeploy && t == 0 {
            s.cycles.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };
        if cycle > 0 && cycle % mix.redeploy_every as u64 == 0 {
            let next = &s.json[engine_of(registry.version() + 1)];
            op += 1;
            let t0 = Instant::now();
            let outcome = registry.redeploy_json(next);
            let done = Instant::now();
            log.root("serve.redeploy", op, t0, done);
            st.reload_us.push((done - t0).as_secs_f64() * 1e6);
            let ok = matches!(outcome, Ok(ReloadOutcome::Swapped(_)));
            if let Ok(ReloadOutcome::Swapped(r)) = &outcome {
                st.swap_us.push(r.swap_micros as f64);
            }
            st.phase.add(ok);
        }
    }
    st.spans = log.into_spans();
    st
}

/// One phase over both threads.
struct Phase {
    threads: Vec<ThreadStats>,
    elapsed: Duration,
    serve: Counters,
    wire_frames: u64,
    client: ClientStats,
    allocs: u64,
}

impl Phase {
    /// Rounds of one phase as one: threads of every round side by side,
    /// counters summed.
    fn pooled(rounds: Vec<Phase>) -> Phase {
        let mut all = Phase {
            threads: Vec::new(),
            elapsed: Duration::ZERO,
            serve: Counters::default(),
            wire_frames: 0,
            client: ClientStats::default(),
            allocs: 0,
        };
        for r in rounds {
            all.elapsed += r.elapsed;
            all.serve.merge(&r.serve);
            all.wire_frames += r.wire_frames;
            all.client.connects += r.client.connects;
            all.client.retries += r.client.retries;
            all.allocs += r.allocs;
            all.threads.extend(r.threads);
        }
        all
    }

    /// Per-call latencies of every thread.
    fn calls_hist(&self) -> Histogram {
        let mut h = Histogram::default();
        for t in &self.threads {
            h.merge(&t.call_us);
        }
        h
    }

    /// Per-call latency summary of this phase.
    fn calls(&self) -> Option<stats::Summary> {
        self.calls_hist().summary()
    }

    fn tally(&self) -> PhaseCount {
        let mut p = PhaseCount::default();
        for t in &self.threads {
            p.absorb(&t.phase);
        }
        p
    }

    fn all<T: Clone>(&self, f: impl Fn(&ThreadStats) -> &Vec<T>) -> Vec<T> {
        self.threads
            .iter()
            .flat_map(|t| f(t).iter().cloned())
            .collect()
    }

    fn sum(&self, f: impl Fn(&ThreadStats) -> u64) -> u64 {
        self.threads.iter().map(f).sum()
    }
}

fn client_sum(clients: &[WireClient]) -> ClientStats {
    clients.iter().fold(ClientStats::default(), |a, c| {
        let s = c.stats();
        ClientStats {
            connects: a.connects + s.connects,
            retries: a.retries + s.retries,
            breaker_trips: a.breaker_trips + s.breaker_trips,
            turned_away: a.turned_away + s.turned_away,
        }
    })
}

/// Runs both threads for `dur`, over the wire or (with `local`) straight
/// into the server.
fn run_phase(
    s: &mut Setup,
    mix: Mix,
    dur: Duration,
    local: bool,
    trace: ((bool, u64), Instant),
) -> Phase {
    let mut clients = std::mem::take(&mut s.clients);
    let shared: &Setup = s;
    let before = serving::serve_counters(&shared.dep.server);
    let frames = || {
        let st = shared.wire.stats();
        st.frames_read + st.frames_written
    };
    let (f0, c0, a0) = (frames(), client_sum(&clients), sys::allocations());
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let bounds = (start + dur, !local);
    let threads = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                let stop = &stop;
                scope.spawn(move || {
                    let split = Cell::new(None);
                    let caller = if local {
                        Caller::Local(&shared.dep.server, &split)
                    } else {
                        Caller::Wire(c)
                    };
                    let st = thread_loop(shared, caller, t, mix, bounds, trace, stop);
                    // A thread that dies early stops its peer too.
                    stop.store(true, Ordering::Relaxed);
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    let c1 = client_sum(&clients);
    let phase = Phase {
        threads,
        elapsed,
        serve: serving::serve_counters(&shared.dep.server).since(&before),
        wire_frames: frames() - f0,
        client: ClientStats {
            connects: c1.connects - c0.connects,
            retries: c1.retries - c0.retries,
            breaker_trips: c1.breaker_trips - c0.breaker_trips,
            turned_away: c1.turned_away - c0.turned_away,
        },
        allocs: sys::allocations() - a0,
    };
    s.clients = clients;
    phase
}

/// Wire codec work of one op of each kind: request encode + frame +
/// header decode + CRC check + request decode, then the same for the
/// response. Returns (median ns per cycle-weighted op, frame bytes per op).
fn codec(s: &Setup, mix: &Mix, budget: Duration) -> Result<(f64, f64), String> {
    let logits = s.expected[0][0].clone();
    let health = ptnc_infer::Health::Healthy;
    let kinds: [(Request, Response, usize); 4] = [
        (
            Request::Submit {
                tenant: TENANT.into(),
                steps: s.windows[0].clone(),
            },
            Response::Logits {
                logits: logits.clone(),
                health,
            },
            mix.oneshots,
        ),
        (
            Request::SubmitChunk {
                session: 7,
                steps: s.chunks[0].clone(),
            },
            Response::Logits { logits, health },
            mix.chunks,
        ),
        (
            Request::OpenSession {
                tenant: TENANT.into(),
                policy: ReloadPolicy::ResetOnReload,
            },
            Response::SessionOpened { session: 7 },
            1,
        ),
        (
            Request::CloseSession { session: 7 },
            Response::SessionClosed { was_open: true },
            1,
        ),
    ];
    let ops_per_cycle = (mix.oneshots + mix.chunks + 2) as f64;
    let (mut payload, mut buf) = (Vec::new(), Vec::new());
    let mut round_trip = |req: &Request, resp: &Response| -> Result<usize, String> {
        let mut bytes = 0;
        payload.clear();
        req.encode(&mut payload).map_err(|e| e.to_string())?;
        frame::encode_frame(&mut buf, req.frame_type(), 1, &payload);
        bytes += buf.len();
        let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header length");
        let h = frame::decode_header(header, u32::MAX).map_err(|e| e.to_string())?;
        frame::check_payload(&h, &buf[HEADER_LEN..]).map_err(|e| e.to_string())?;
        std::hint::black_box(
            Request::decode(h.frame_type, &buf[HEADER_LEN..]).map_err(|e| e.to_string())?,
        );
        payload.clear();
        resp.encode(&mut payload);
        frame::encode_frame(&mut buf, resp.frame_type(), 1, &payload);
        bytes += buf.len();
        let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header length");
        let h = frame::decode_header(header, u32::MAX).map_err(|e| e.to_string())?;
        frame::check_payload(&h, &buf[HEADER_LEN..]).map_err(|e| e.to_string())?;
        let back = Response::decode(h.frame_type, &buf[HEADER_LEN..]).map_err(|e| e.to_string())?;
        if &back != resp {
            return Err(format!("{:?} did not survive the codec", h.frame_type));
        }
        Ok(bytes)
    };
    let mut bytes_per_cycle = 0.0;
    for (req, resp, n) in &kinds {
        bytes_per_cycle += (round_trip(req, resp)? * n) as f64;
    }
    let mut samples = Vec::new();
    let until = Instant::now() + budget;
    while samples.len() < 8 || Instant::now() < until {
        let t0 = Instant::now();
        for (req, resp, n) in &kinds {
            for _ in 0..*n {
                round_trip(req, resp)?;
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / ops_per_cycle);
    }
    Ok((
        stats::median(&samples).unwrap_or(0.0),
        bytes_per_cycle / ops_per_cycle,
    ))
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Records the rounds of one phase: a lanes check per round, then the
/// pooled tally, answer check and summary line. Returns the pooled phase.
fn record_phase(out: &mut Outcome, name: &str, rounds: Vec<Phase>) -> Phase {
    let bad: Vec<String> = rounds
        .iter()
        .filter_map(|p| crate::phase::check_lanes(name, &p.serve, p.sum(|t| t.batched_ok)).err())
        .collect();
    out.check(
        &format!("lanes.{name}"),
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        },
    );
    let p = Phase::pooled(rounds);
    let mut tally = p.tally();
    tally.name = name.to_string();
    let calls = p.calls_hist();
    out.note(format!(
        "phase {name}: sent {} ok {} failed {} in {:.3} s, {:.0} timesteps/s, \
         call p50 {:.1} us over {} calls, {} reloads, {} lifecycles crossed by a reload",
        tally.sent,
        tally.ok,
        tally.failed,
        p.elapsed.as_secs_f64(),
        p.sum(|t| t.timesteps) as f64 / p.elapsed.as_secs_f64().max(1e-9),
        calls.quantile(0.5).unwrap_or(0.0),
        calls.len(),
        p.all(|t| &t.reload_us).len(),
        p.sum(|t| t.unchecked_lifecycles),
    ));
    let (checked, wrong) = (p.sum(|t| t.checked), p.sum(|t| t.wrong));
    out.check(
        &format!("answers.{name}"),
        match (checked, wrong) {
            (0, _) => Err("no answer was checked".into()),
            (_, 0) => Ok(()),
            (c, w) => Err(format!("{w} of {c} answers match no live engine version")),
        },
    );
    out.phases.push(tally);
    p
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let k = &ctx.plan.knobs;
    let mix = Mix {
        submit_steps: k.count("submit_steps")?,
        chunk_steps: k.count("chunk_steps")?,
        oneshots: k.count("oneshots_per_cycle")?,
        chunks: k.count("chunks_per_session")?,
        redeploy_every: k.count("redeploy_every_cycles")?.max(1),
    };
    let pool = k.count("pool")?;
    let setups = k.count("setup_rounds")?;
    let rounds = k.count("rounds")?.max(1);

    let mut out = Outcome::default();
    let mut setup = None;
    for _ in 0..setups.max(1) {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(set_up(ctx, &mix, pool)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = setup.expect("at least one set-up round");
    out.config
        .push(("batch_config".into(), serving::batch_config_stamp()));
    out.config.push((
        "wire_server_config".into(),
        format!("{:?}", WireServerConfig::default()),
    ));
    out.config.push((
        "wire_client_config".into(),
        format!("{:?}", WireClientConfig::default()),
    ));

    // Rounds alternate over the whole run, so every kind of phase sees the
    // same spells of a noisy machine.
    let per = |share: f64| ctx.budget(share) / rounds as u32;
    let share = if ctx.trace { 0.3 } else { 1.0 };
    let (mut plain, mut traced, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let mut proc = sys::ProcDelta::default();
    for _ in 0..rounds {
        plain.push(proc.around(|| run_phase(&mut s, mix, per(share), false, ctx.tracing(false))));
        if ctx.trace {
            traced.push(run_phase(&mut s, mix, per(share), false, ctx.tracing(true)));
            local.push(run_phase(&mut s, mix, per(0.2), true, ctx.tracing(true)));
        }
    }
    // Pooled over rounds, so the figures move smoothly with the share of
    // slow spells on a noisy machine.
    let rate = |p: &Phase| p.sum(|t| t.timesteps) as f64 / p.elapsed.as_secs_f64().max(1e-9);
    let traced = Phase::pooled(traced);
    let (tps_traced, p50_traced) = (rate(&traced), traced.calls().map_or(0.0, |c| c.p50));
    let a = record_phase(&mut out, "wire", plain);
    let all = a.calls().ok_or("no call completed")?;
    out.set("throughput_tps", rate(&a));
    out.set("latency_p50_us", all.p50);
    match all.p90 {
        Some(v) => out.set("latency_p90_us", v),
        None => out.check(
            "samples.wire",
            Err(format!("{} calls, p90 needs 100", all.count)),
        ),
    }
    out.set(
        "latency_p99_us",
        all.tail.filter(|t| t.0 >= 0.99).map_or(0.0, |t| t.1),
    );
    out.set("latency_samples", all.count as f64);

    if ctx.trace {
        let ta = record_phase(&mut out, "wire.traced", vec![traced]);
        let lp = record_phase(&mut out, "local.traced", local);
        crate::proc_metrics(&mut out, &proc, a.tally().sent);
        per_layer(ctx, &mut out, &s, &mix, (&a, &ta, &lp))?;
        let spans: Vec<Span> = ta
            .all(|t| &t.spans)
            .into_iter()
            .chain(lp.all(|t| &t.spans))
            .collect();
        let plain = (
            out_metric(&out, "throughput_tps"),
            out_metric(&out, "latency_p50_us"),
        );
        crate::trace_metrics(
            &mut out,
            (plain.0, tps_traced),
            (plain.1, p50_traced),
            &spans,
        );
        out.spans = spans;
    }
    Ok(out)
}

fn out_metric(out: &Outcome, name: &str) -> f64 {
    out.metrics.get(name).copied().unwrap_or(0.0)
}

fn per_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    s: &Setup,
    mix: &Mix,
    (a, ta, local): (&Phase, &Phase, &Phase),
) -> Result<(), String> {
    let ops = a.tally().sent;
    let spans = ta.all(|t| &t.spans);
    let local_spans = local.all(|t| &t.spans);
    let span_p50 = |spans: &[Span], name: &str| p50(&trace::durations_us(spans, name));
    for (metric, name) in [
        ("wire.call_us.submit", "wire.call.submit"),
        ("wire.call_us.chunk", "wire.call.chunk"),
        ("wire.call_us.open", "wire.call.open"),
        ("wire.call_us.close", "wire.call.close"),
    ] {
        out.set(metric, span_p50(&spans, name));
    }
    out.set(
        "wire.frames_per_op",
        a.wire_frames as f64 / ops.max(1) as f64,
    );
    out.set("wire.retries", a.client.retries as f64);
    out.set("wire.reconnects", a.client.connects as f64);
    out.set("wire.errors", a.sum(|t| t.errors) as f64);
    let (codec_ns, bytes) = codec(s, mix, ctx.budget(0.04))?;
    out.set("wire.codec_ns", codec_ns);
    out.set("wire.bytes_per_op", bytes);
    let wire_p50 = ta.calls_hist().quantile(0.5).unwrap_or(0.0);
    out.set(
        "wire.overhead_us",
        wire_p50 - local.calls_hist().quantile(0.5).unwrap_or(0.0),
    );

    out.set(
        "serve.open_session_us",
        span_p50(&local_spans, "serve.open_session"),
    );
    out.set(
        "serve.close_session_us",
        span_p50(&local_spans, "serve.close_session"),
    );
    out.set("serve.reload_us", p50(&a.all(|t| &t.reload_us)));
    out.set("serve.swap_us", p50(&a.all(|t| &t.swap_us)));
    out.set("serve.submit_us", span_p50(&local_spans, "serve.submit"));
    out.set("serve.wait_us", span_p50(&local_spans, "serve.wait"));
    let fill = a.serve.get("serve.lanes") as f64 / a.serve.get("serve.batches").max(1) as f64;
    out.set("serve.batch_fill", fill);
    let depth = a
        .threads
        .iter()
        .fold((0.0, 0), |d, t| (d.0 + t.depth.0, d.1 + t.depth.1));
    out.set("serve.queue_depth_mean", serving::mean(depth));
    out.set("serve.shed", a.serve.get("serve.shed") as f64);
    out.set("serve.busy", a.sum(|t| t.busy) as f64);
    out.set("serve.allocs_per_op", a.allocs as f64 / ops.max(1) as f64);

    let micro = ctx.budget(0.04);
    let mb = serving::replay_microbatcher(
        &s.engines[0],
        &s.windows,
        fill.round() as usize,
        false,
        micro,
    );
    serving::set_microbatch(out, &mb);
    serving::set_kernel(out, &s.engines[0], &s.windows, false, micro);
    out.set("core.compile_ms", serving::compile_ms(&s.json[0], 5));
    Ok(())
}
