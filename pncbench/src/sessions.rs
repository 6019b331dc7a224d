//! `sessions_f32`: 100k resident `StreamSession`s on a snapshot carrying
//! the `"f32"` serving hint, fed 8-step chunks in rotation across
//! sessions.
//!
//! Phase `open` offers a fixed aggregate chunk rate; phase `closed` keeps a
//! fixed number of chunks outstanding, never more than one per session.
//! The chunks of every sampled session must reproduce, bit for bit, a
//! local `StreamSession` replay of the same chunks on an engine compiled
//! from the same snapshot.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ptnc_serve::{ReloadPolicy, ServingError, SessionId, Ticket};

use crate::load::{Loop, Sent, SpanNames};
use crate::serving::{self, Deployment, Measured};
use crate::{same_bits, Ctx, Outcome};

const TENANT: &str = "sessions";
const NAMES: SpanNames = SpanNames {
    submit: "serve.submit_chunk",
    wait: "serve.wait",
};

struct Setup {
    dep: Deployment,
    json: String,
    ids: Vec<SessionId>,
    chunks: Vec<Vec<f64>>,
    open_us: f64,
}

fn set_up(ctx: &Ctx, sessions: usize, steps: usize, pool: usize) -> Result<Setup, String> {
    let json = serving::snapshot_json(ctx.seed, Some("f32"));
    let dep = Deployment::start(&ctx.dir, &json)?;
    let chunks = serving::windows(ctx.seed ^ 0x5E55_1045, pool, steps);
    // Warm the worker on sessions of its own, closed again before timing.
    for w in chunks.iter().take(64) {
        let id = dep
            .server
            .open_session("warm-up", ReloadPolicy::PinOld)
            .map_err(|e| format!("warm-up open: {e}"))?;
        for _ in 0..4 {
            let t = dep
                .server
                .submit_chunk(id, w)
                .map_err(|e| format!("warm-up: {e}"))?;
            t.wait().map_err(|e| format!("warm-up: {e}"))?;
        }
        dep.server.close_session(id);
    }
    let t0 = Instant::now();
    let ids = (0..sessions)
        .map(|_| dep.server.open_session(TENANT, ReloadPolicy::PinOld))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open sessions: {e}"))?;
    let open_us = t0.elapsed().as_secs_f64() * 1e6 / sessions.max(1) as f64;
    Ok(Setup {
        dep,
        json,
        ids,
        chunks,
        open_us,
    })
}

/// The chunk session `s` receives as its `round`-th: a seeded pick from
/// the chunk pool, so replay needs only `(s, round)`.
fn chunk_index(seed: u64, s: usize, round: u32, pool: usize) -> usize {
    let mut z = seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(round) << 40;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % pool as u64) as usize
}

/// Rotation state shared by both phases: the next session to feed and
/// how many chunks each session has accepted.
struct Rotation {
    cursor: usize,
    rounds: Vec<u32>,
    busy: u64,
}

/// Logits the server returned for sampled sessions, by session and round.
type Sampled = Mutex<BTreeMap<usize, Vec<(u32, Vec<f64>)>>>;

fn measure(
    ctx: &Ctx,
    s: &Setup,
    rot: &mut Rotation,
    sampled: &Sampled,
    errors: &serving::Errors,
    every: usize,
    (lp, traced, dur): (Loop, bool, Duration),
) -> Measured {
    let server = &s.dep.server;
    let pool = s.chunks.len();
    let submit = |_k: u64| {
        let i = rot.cursor;
        rot.cursor = (rot.cursor + 1) % s.ids.len();
        let round = rot.rounds[i];
        let chunk = &s.chunks[chunk_index(ctx.seed, i, round, pool)];
        match server.submit_chunk(s.ids[i], chunk) {
            Ok(t) => {
                rot.rounds[i] += 1;
                Ok((t, i, round))
            }
            Err(e) => {
                if matches!(e, ServingError::SessionBusy) {
                    rot.busy += 1;
                }
                errors.record(&e);
                Err(())
            }
        }
    };
    let complete = |sent: Sent<(Ticket, usize, u32)>| {
        let (ticket, i, round) = sent.item;
        let steps = ticket.timesteps as u64;
        let logits = ticket.wait().map_err(|e| errors.record(&e)).ok()?;
        if i % every == 0 {
            let mut log = sampled.lock().expect("sample log poisoned");
            log.entry(i).or_default().push((round, logits));
        }
        Some(steps)
    };
    serving::measure(ctx, server, lp, traced, dur, NAMES, submit, complete)
}

/// Replays each sampled session's chunks on a local `StreamSession` and
/// compares every recorded answer bitwise; returns (checked, wrong).
fn verify(s: &Setup, seed: u64, sampled: Sampled) -> Result<(usize, usize), String> {
    let engine = serving::compile(&s.json)?;
    let mut scratch = engine.make_scratch(1).map_err(|e| e.to_string())?;
    let mut out = vec![0.0; engine.spec().classes];
    let (mut checked, mut wrong) = (0, 0);
    for (i, mut answers) in sampled.into_inner().expect("sample log poisoned") {
        answers.sort_by_key(|a| a.0);
        let mut local = Arc::clone(&engine).session();
        for (expect_round, (round, logits)) in answers.iter().enumerate() {
            if *round as usize != expect_round {
                return Err(format!(
                    "session {i}: answer for round {round} out of order"
                ));
            }
            let chunk = &s.chunks[chunk_index(seed, i, *round, s.chunks.len())];
            local
                .run_chunk(chunk, &mut scratch, &mut out)
                .map_err(|e| format!("local replay: {e}"))?;
            checked += 1;
            if !same_bits(&out, logits) {
                wrong += 1;
            }
        }
    }
    Ok((checked, wrong))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = ctx.plan;
    let sessions = plan.knobs.count("sessions")?;
    let steps = plan.knobs.count("chunk_steps")?;
    let pool = plan.knobs.count("pool")?;
    let every = plan.knobs.count("sample_every")?.max(1);
    let setups = plan.knobs.count("setup_rounds")?;
    let late_bound = plan.knobs.get("lateness_p50_bound_us")?;
    let rate = plan.offered_rate.ok_or("sessions_f32 needs offered_rate")?;
    let window = plan.outstanding.ok_or("sessions_f32 needs outstanding")?;
    if window >= sessions {
        return Err("outstanding chunks must be fewer than sessions".into());
    }

    let mut out = Outcome::default();
    let mut setup = None;
    for _ in 0..setups.max(1) {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(set_up(ctx, sessions, steps, pool)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = setup.expect("at least one set-up round");
    out.config
        .push(("batch_config".into(), serving::batch_config_stamp()));

    let mut rot = Rotation {
        cursor: 0,
        rounds: vec![0; sessions],
        busy: 0,
    };
    let sampled: Sampled = Mutex::default();
    let errors = serving::Errors::default();
    let r = serving::run_rounds(ctx, plan.knobs.count("rounds")?, |open, traced, dur| {
        let lp = if open {
            Loop::Open { rate }
        } else {
            Loop::Closed { window }
        };
        measure(
            ctx,
            &s,
            &mut rot,
            &sampled,
            &errors,
            every,
            (lp, traced, dur),
        )
    });
    serving::report(&mut out, &r, rate, late_bound)?;
    errors.report(&mut out);
    if ctx.trace {
        serving::serve_layer_metrics(&mut out, &r, NAMES.submit);
        out.set("serve.busy", rot.busy as f64);
        out.set("serve.open_session_us", s.open_us);
        let engine = serving::compile(&s.json)?;
        let micro = ctx.budget(0.04);
        let fill = serving::fill(&r.closed).round() as usize;
        let mb = serving::replay_microbatcher(&engine, &s.chunks, fill, true, micro);
        serving::set_microbatch(&mut out, &mb);
        serving::set_kernel(&mut out, &engine, &s.chunks, true, micro);
        out.set("core.compile_ms", serving::compile_ms(&s.json, 5));
        let t0 = Instant::now();
        let closed = s
            .ids
            .iter()
            .filter(|&&id| s.dep.server.close_session(id))
            .count();
        out.set(
            "serve.close_session_us",
            t0.elapsed().as_secs_f64() * 1e6 / s.ids.len().max(1) as f64,
        );
        out.check(
            "sessions.closed",
            if closed == s.ids.len() {
                Ok(())
            } else {
                Err(format!(
                    "{closed} of {} sessions were still open",
                    s.ids.len()
                ))
            },
        );
    }

    let (checked, wrong) = verify(&s, ctx.seed, sampled)?;
    out.note(format!(
        "replayed {checked} chunks of sampled sessions (every {every}th) locally"
    ));
    out.check(
        "streams.bitwise",
        match (checked, wrong) {
            (0, _) => Err("no sampled chunk completed".into()),
            (_, 0) => Ok(()),
            (c, w) => Err(format!(
                "{w} of {c} sampled chunks differ from the local replay"
            )),
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_pick_is_seeded_and_spread() {
        let a: Vec<usize> = (0..64).map(|r| chunk_index(1, 5, r, 1024)).collect();
        assert_eq!(
            a,
            (0..64)
                .map(|r| chunk_index(1, 5, r, 1024))
                .collect::<Vec<_>>()
        );
        assert_ne!(
            a,
            (0..64)
                .map(|r| chunk_index(2, 5, r, 1024))
                .collect::<Vec<_>>()
        );
        assert!(a.iter().all(|&i| i < 1024));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 48);
    }
}
