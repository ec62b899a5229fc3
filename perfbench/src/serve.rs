//! `serve-mix`: an in-process `Server` with the default configuration,
//! driven closed-loop by two client threads. One job = one answered
//! request.
//!
//! The stream has three classes: *fresh* (an identity the server has not
//! seen: transform, interpret, capture), *hit* (an exact repeat, answered
//! from the result cache) and *replay* (a repeat that differs only in its
//! watchdog budget, so it misses the result cache and replays the frozen
//! capture from the trace cache), in the ratio 1 : 3 : 1. The stream runs
//! in epochs; each epoch starts a new server and requests every identity
//! fresh once, so the key space of an epoch (fresh plus replay entries)
//! stays inside `cache_cap` and every epoch computes the same payloads.

use crate::layers::{add, Tally};
use crate::{
    finish_trace, fold, intern, percentile, phases, quiet, timed_setup, Config, Metric, Outcome,
    Pass, Rng,
};
use cuda_np::serve::client::variant_kernel;
use cuda_np::serve::{Request, Response, ServeConfig, Server, Status};
use cuda_np::transform;
use np_obs::Recorder;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Instant;

const CLIENTS: usize = 2;
/// TMV variants per client; each runs at slave size 2 and 4, grid 2 and 4.
const VARIANTS_PER_CLIENT: u64 = 6;
const HITS_PER_IDENTITY: usize = 3;
/// Epoch scripts made at set-up; epochs past the last reuse them in turn.
const SCRIPTS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Hit,
    Replay,
}

/// Each class with its name and its p50 and p90 latency metrics.
const CLASSES: [(Class, &str, &str, &str); 3] = [
    (Class::Fresh, "fresh", "fresh_p50_ms", "fresh_p90_ms"),
    (Class::Hit, "hit", "hit_p50_ms", "hit_p90_ms"),
    (Class::Replay, "replay", "replay_p50_ms", "replay_p90_ms"),
];

/// One request identity: everything that determines its payload.
struct Identity {
    key: String,
    /// The request line without its `id` and `watchdog` members.
    body: String,
}

/// The identities each client owns, disjoint between clients so a
/// client's hits and replays only ever follow its own answered fresh
/// request.
fn setup() -> Vec<Vec<Identity>> {
    (0..CLIENTS as u64)
        .map(|c| {
            let mut ids = Vec::new();
            for v in c * VARIANTS_PER_CLIENT..(c + 1) * VARIANTS_PER_CLIENT {
                let kernel = np_obs::json_string(&variant_kernel(v));
                for slave in [2, 4] {
                    for grid in [2, 4] {
                        ids.push(Identity {
                            key: format!("v{v} slave={slave} grid={grid}"),
                            body: format!(
                                "\"kernel\":{kernel},\"grid\":{grid},\"slave_size\":{slave}"
                            ),
                        });
                    }
                }
            }
            ids
        })
        .collect()
}

/// One client's requests for one epoch: class, identity index, line.
type Script = Vec<(Class, usize, String)>;

/// Every identity once fresh, then its replay and hits, interleaved across
/// identities at random.
fn script(rng: &mut Rng, client: usize, ids: &[Identity]) -> Script {
    let mut queues: Vec<VecDeque<Class>> = ids
        .iter()
        .map(|_| {
            let mut rest = vec![Class::Replay];
            rest.extend([Class::Hit; HITS_PER_IDENTITY]);
            rng.shuffle(&mut rest);
            std::iter::once(Class::Fresh).chain(rest).collect()
        })
        .collect();
    let mut live: Vec<usize> = (0..ids.len()).collect();
    let mut out = Vec::new();
    while !live.is_empty() {
        let k = rng.below(live.len());
        let id = live[k];
        let class = queues[id].pop_front().expect("live queues are non-empty");
        if queues[id].is_empty() {
            live.swap_remove(k);
        }
        let n = out.len();
        // A distinct budget per replay keeps every replay a result-cache
        // miss; any budget above the kernel's step count replays cleanly.
        let watchdog = match class {
            Class::Replay => format!(
                ",\"watchdog\":{}",
                np_exec::DEFAULT_WATCHDOG_STEPS + 1 + (client * 1_000_000 + n) as u64
            ),
            _ => String::new(),
        };
        out.push((
            class,
            id,
            format!("{{\"id\":\"c{client}-{n}\",{}{watchdog}}}", ids[id].body),
        ));
    }
    out
}

/// The first unsigned integer after `"key":` in a payload.
fn field(payload: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    payload
        .find(&pat)
        .map(|i| &payload[i + pat.len()..])
        .and_then(|s| {
            s[..s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len())]
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// What one client saw in one epoch.
#[derive(Default)]
struct ClientRun {
    latency_ms: [Vec<f64>; 3],
    failed: u64,
    winstr: u64,
    replays: u64,
    /// Identity index and fresh payload.
    payloads: Vec<(usize, String)>,
    responses: Vec<Response>,
    errors: Vec<String>,
}

fn client(
    server: &Server,
    ids: &[Identity],
    script: &Script,
    tally: &Tally,
    keep: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut fresh: Vec<Option<String>> = ids.iter().map(|_| None).collect();
    let (tx, rx) = mpsc::channel();
    for (class, id, line) in script {
        let t0 = Instant::now();
        server.submit(line, &tx);
        let resp = rx.recv().expect("the server answers every request");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ci = CLASSES
            .iter()
            .position(|(c, ..)| c == class)
            .expect("known class");
        run.latency_ms[ci].push(ms);
        let payload = resp.payload.clone().unwrap_or_default();
        let mut fail = |why: String| {
            run.failed += 1;
            run.errors.push(format!("{}: {why}", ids[*id].key));
        };
        if resp.status != Status::Ok {
            fail(format!(
                "status {} {}",
                resp.status.as_str(),
                resp.error.clone().unwrap_or_default()
            ));
        } else if resp.cached != (*class == Class::Hit) {
            fail(format!(
                "cached={} on a {} request",
                resp.cached, CLASSES[ci].1
            ));
        } else if *class == Class::Fresh {
            fresh[*id] = Some(payload.clone());
            run.payloads.push((*id, payload.clone()));
        } else if fresh[*id].as_deref() != Some(payload.as_str()) {
            fail(format!(
                "{} payload differs from the fresh one",
                CLASSES[ci].1
            ));
        }
        let (blocks, cycles) = (field(&payload, "blocks"), field(&payload, "cycles"));
        run.winstr += field(&payload, "instructions");
        match class {
            Class::Fresh => {
                add(&tally.interp_blocks, blocks);
                add(&tally.interp_winstr, field(&payload, "instructions"));
                add(&tally.timing_blocks, blocks);
                add(&tally.timing_cycles, cycles);
            }
            Class::Replay => {
                run.replays += 1;
                add(&tally.timing_blocks, blocks);
                add(&tally.timing_cycles, cycles);
            }
            Class::Hit => {}
        }
        if keep {
            run.responses.push(resp);
        }
    }
    run
}

/// Outside estimates of a traced epoch, made after it: parse every line
/// and render every response again, and intern each fresh request's
/// transformed kernel.
fn estimate(scripts: &[Script], runs: &[ClientRun], tally: &Tally) {
    quiet(|| {
        for (class, _, line) in scripts.iter().flatten() {
            let t0 = Instant::now();
            let req = Request::from_json_line(line);
            add(&tally.serve_parse_ns, t0.elapsed().as_nanos() as u64);
            if let (Class::Fresh, Ok(req)) = (class, req) {
                if let Ok(t) = transform(&req.kernel, &req.np_options()) {
                    intern(&t.kernel, tally);
                }
            }
        }
        for resp in runs.iter().flat_map(|r| &r.responses) {
            let t0 = Instant::now();
            std::hint::black_box(resp.to_json_line());
            add(&tally.serve_render_ns, t0.elapsed().as_nanos() as u64);
        }
    });
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is the seeded request stream, one script per client per
    // epoch, plus bringing a server up and down.
    let (ids, scripts) = timed_setup(cfg, &mut out, || {
        let ids = setup();
        let mut rng = Rng::new(cfg.seed);
        let scripts: Vec<Vec<Script>> = (0..SCRIPTS)
            .map(|_| {
                ids.iter()
                    .enumerate()
                    .map(|(c, v)| script(&mut rng, c, v))
                    .collect()
            })
            .collect();
        Server::start(ServeConfig::default()).shutdown();
        (ids, scripts)
    });
    let rec = cfg.trace.then(|| Recorder::buffer(crate::OBS_CAP));
    let tally = Tally::default();
    let mut latency_ms: [Vec<f64>; 3] = Default::default();
    let mut errors: Vec<String> = Vec::new();

    let (untraced, traced) = phases(cfg, rec.as_ref(), &tally, |epoch, obs, tally| {
        let scripts = &scripts[epoch % SCRIPTS];
        let server = Server::start(ServeConfig {
            obs: obs.cloned(),
            ..ServeConfig::default()
        });
        let t0 = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (server, ids, script) = (&server, &ids[c], &scripts[c]);
                    s.spawn(move || client(server, ids, script, tally, obs.is_some()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let secs = t0.elapsed().as_secs_f64();
        let end = server.shutdown();

        let mut pass = Pass {
            secs,
            attempted: 1,
            ..Pass::default()
        };
        let mut digest_lines: Vec<String> = Vec::new();
        let mut replays = 0;
        for (c, r) in runs.iter().enumerate() {
            pass.jobs += r.latency_ms.iter().map(|v| v.len() as u64).sum::<u64>();
            pass.attempted += r.latency_ms.iter().map(|v| v.len() as u64).sum::<u64>();
            pass.failed += r.failed;
            pass.winstr += r.winstr;
            replays += r.replays;
            errors.extend(r.errors.iter().cloned());
            digest_lines.extend(
                r.payloads
                    .iter()
                    .map(|(id, p)| format!("{} {p}", ids[c][*id].key)),
            );
            if obs.is_none() {
                for (all, mine) in latency_ms.iter_mut().zip(&r.latency_ms) {
                    all.extend(mine);
                }
            }
        }
        let snap = &end.snapshot;
        if snap.trace_replays != replays || end.worker_panics != 0 {
            pass.failed += 1;
            errors.push(format!(
                "server counted {} trace replays for {replays} replay requests ({} worker panics)",
                snap.trace_replays, end.worker_panics
            ));
        }
        if obs.is_some() {
            add(&tally.serve_hits, snap.cache_hits);
            add(&tally.serve_misses, snap.completed_ok - snap.cache_hits);
            add(&tally.serve_trace_replays, snap.trace_replays);
            add(&tally.serve_shed, snap.shed_overloaded);
            estimate(scripts, &runs, tally);
        }
        digest_lines.sort();
        pass.digest = digest_lines.iter().fold(0, |acc, d| fold(acc, d));
        pass
    });
    if let Some(rec) = &rec {
        finish_trace(&mut out, rec, &tally, &untraced, &traced);
    }
    out.passes = untraced;
    out.notes
        .extend(errors.into_iter().take(20).map(|e| format!("FAILED {e}")));
    for ((_, _, p50, p90), v) in CLASSES.iter().zip(latency_ms.iter_mut()) {
        let n = format!("n={}", v.len());
        out.extra
            .push(Metric::new(p50, "ms", percentile(v, 50.0), n.clone()));
        out.extra
            .push(Metric::new(p90, "ms", percentile(v, 90.0), n));
    }
    out
}
