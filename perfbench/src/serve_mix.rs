//! `serve-mix`: a shared daemon.
//!
//! Two client connections, one tenant each, drive an in-process
//! `Server::bind_tcp` on loopback (workers=2) over a fresh disk store.
//! Each client repeats a seeded set of (program, action) pairs over the
//! suite at n=32, iters=4, with actions run/cpu/check/verify; one request
//! in five instead carries a new source (a fresh edit of one of those
//! programs). Set-up fills the store from a first daemon with the
//! repeated pairs only; the timed phase runs on a fresh daemon, so first
//! touches are disk reads and new sources are disk writes. Wire, queue,
//! API rendering, session lookups and the cache codec carry the hits; the
//! misses make the tail, so an execution-engine change should move only
//! the tail here.
//!
//! Every served report must be byte-identical to a one-shot
//! `api::handle` answer on a fresh session, and every one-shot verdict
//! must match the known answers.

use crate::answers;
use crate::stats::{ms_since, percentile};
use crate::trace::{Tracer, NO_SPAN};
use crate::{Ctx, Outcome, PassStart};
use openarc_core::api::{handle, Action, Request, Response};
use openarc_core::fuzz::FuzzRng;
use openarc_core::pipeline::{Session, Stage};
use openarc_core::serve::{Server, ServerConfig};
use openarc_core::{DiskCache, TranslateOptions};
use openarc_suite::{Benchmark, Scale, Variant};
use openarc_trace::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SCALE: Scale = Scale { n: 32, iters: 4 };
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 3;
/// One request in `EDIT_EVERY` carries a new source.
const EDIT_EVERY: usize = 5;
/// Indexed by [`Pair::action`].
const ACTIONS: [Action; 4] = [Action::Run, Action::Cpu, Action::Check, Action::Verify];

/// One (program, action) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pair {
    bench: usize,
    variant: usize,
    action: usize,
}

impl Pair {
    fn label(self, benches: &[Benchmark]) -> (String, String) {
        let v = [Variant::Unoptimized, Variant::Optimized][self.variant];
        (
            benches[self.bench].name.to_string(),
            format!("{}-{}", ACTIONS[self.action].as_str(), v.name()),
        )
    }

    fn source(self, benches: &[Benchmark]) -> &str {
        benches[self.bench].source([Variant::Unoptimized, Variant::Optimized][self.variant])
    }
}

/// Each client's repeated pairs: client 0 debugs the Unoptimized
/// variants (`check`, `run`), client 1 the Optimized ones (`verify`,
/// `cpu`), over all 12 programs. The set is fixed so every seed serves
/// the same mix; the seed picks the order and which requests are edits.
fn repeated_sets() -> Vec<Vec<Pair>> {
    let actions = [[2, 0], [3, 1]];
    (0..CLIENTS)
        .map(|c| {
            (0..12)
                .flat_map(|bench| {
                    actions[c].map(|action| Pair {
                        bench,
                        variant: c,
                        action,
                    })
                })
                .collect()
        })
        .collect()
}

/// A newline-framed JSON client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        Json::parse(&resp).map_err(|e| format!("bad reply line: {e}"))
    }

    fn request(&mut self, req: &Request) -> Result<Response, String> {
        let v = self.call(&req.to_json().to_string())?;
        match v.get("response") {
            Some(r) => Response::from_json(r),
            None => Err(format!("daemon error: {v}")),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.call(r#"{"action":"stats"}"#)?
            .get("stats")
            .cloned()
            .ok_or_else(|| "no stats in reply".to_string())
    }
}

/// A daemon running on its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Daemon {
    fn start(store: &Path) -> Result<Daemon, String> {
        let cfg = ServerConfig {
            workers: 2,
            cache_dir: Some(store.to_path_buf()),
            stats_interval: None,
            ..ServerConfig::default()
        };
        let server = Server::bind_tcp(cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(Daemon { addr, thread })
    }

    /// Stop the daemon and wait for it; every client must be dropped.
    fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)?.call(r#"{"action":"shutdown"}"#)?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
    }
}

fn request(pair: Pair, src: String, c: usize) -> Request {
    let mut r = Request::new(ACTIONS[pair.action], src);
    r.tenant = format!("tenant{c}");
    r
}

/// Set-up: fresh store, a first daemon populated with the repeated pairs,
/// then the fresh daemon and client connections the timed phase uses.
fn setup(
    store: &Path,
    benches: &[Benchmark],
    sets: &[Vec<Pair>],
) -> Result<(Daemon, Vec<Client>), String> {
    let _ = std::fs::remove_dir_all(store);
    let first = Daemon::start(store)?;
    {
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(first.addr))
            .collect::<Result<Vec<_>, _>>()?;
        std::thread::scope(|s| {
            let hs: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, cl)| {
                    s.spawn(move || {
                        for p in &sets[c] {
                            cl.request(&request(*p, p.source(benches).to_string(), c))?;
                        }
                        Ok::<(), String>(())
                    })
                })
                .collect();
            hs.into_iter().try_for_each(|h| {
                h.join()
                    .map_err(|_| "populate thread panicked".to_string())?
            })
        })?;
    }
    first.stop()?;
    let daemon = Daemon::start(store)?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, clients))
}

/// One served request, as the client saw it.
struct Served {
    pair: Pair,
    latency_ms: f64,
    resp: Result<Response, String>,
}

/// The requests of one client's cycle: `EDIT_EVERY` rounds, each asking
/// for every repeated pair once in a seeded order. In round `r` the pairs
/// at positions `r, r + EDIT_EVERY, …` of a seeded permutation come as a
/// new source instead, so each cycle edits every pair exactly once and
/// every cycle costs the same work.
fn cycle(rng: &mut FuzzRng, set: &[Pair]) -> Vec<(Pair, bool)> {
    let shuffled = |rng: &mut FuzzRng| {
        let mut v: Vec<usize> = (0..set.len()).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
        v
    };
    let edit_rank = shuffled(rng);
    (0..EDIT_EVERY)
        .flat_map(|r| {
            let order = shuffled(rng);
            let edit_rank = &edit_rank;
            order
                .into_iter()
                .map(move |i| (set[i], edit_rank[i] % EDIT_EVERY == r))
        })
        .collect()
}

/// Closed loop of one client: whole cycles until the budget is spent.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    cl: &mut Client,
    c: usize,
    seed: u64,
    budget: Duration,
    benches: &[Benchmark],
    set: &[Pair],
    tr: &Tracer,
    ids: &Mutex<u64>,
) -> Vec<Served> {
    let mut rng = FuzzRng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut edits = 0;
    while out.is_empty() || t0.elapsed() < budget {
        for (pair, edit) in cycle(&mut rng, set) {
            let src = if edit {
                edits += 1;
                format!("{}\n// edit {c}.{edits}\n", pair.source(benches))
            } else {
                pair.source(benches).to_string()
            };
            let req = request(pair, src, c);
            let id = {
                let mut g = ids.lock().expect("id counter poisoned");
                *g += 1;
                *g
            };
            let t = Instant::now();
            let root = tr.begin("request", id, NO_SPAN);
            let resp = tr.span("serve.wire", id, root, |_| cl.request(&req));
            tr.end(root);
            out.push(Served {
                pair,
                latency_ms: ms_since(t),
                resp,
            });
        }
    }
    out
}

/// The one-shot answer of a pair (`api::handle` on a fresh session) and
/// its verdict, read back through that session's caches.
fn one_shot(pair: Pair, benches: &[Benchmark]) -> Result<(Response, answers::Verdict), String> {
    let session = Session::builder().build();
    let src = pair.source(benches);
    let resp =
        handle(&session, &Request::new(ACTIONS[pair.action], src)).map_err(|e| e.to_string())?;
    let fe = session.frontend(src).map_err(|e| e.to_string())?;
    let verdict = match ACTIONS[pair.action] {
        Action::Check => {
            let topts = TranslateOptions {
                instrument: true,
                ..Default::default()
            };
            let tra = session.translate(&fe, &topts).map_err(|e| e.to_string())?;
            let r = session
                .execute(&tra, &crate::requests::check_eopts())
                .map_err(|e| e.to_string())?;
            answers::of_check(resp.exit_code, &r)
        }
        Action::Verify => {
            let (_, rep) = session
                .verify(&fe, &TranslateOptions::default(), Default::default())
                .map_err(|e| e.to_string())?;
            answers::of_verify(resp.exit_code, &rep)
        }
        _ => answers::of_exit(resp.exit_code),
    };
    Ok((resp, verdict))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(ctx, &mut out) {
        out.fail(e);
    }
    out
}

fn store_dir(rep: usize) -> PathBuf {
    crate::state_dir().join(format!("serve-store-{}-{rep}", std::process::id()))
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let benches = openarc_suite::all(SCALE);
    let sets = repeated_sets();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (daemon, clients) = setup(&store_dir(rep), &benches, &sets)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, old_clients, old_rep)) = live.replace((daemon, clients, rep)) {
            drop(old_clients);
            Daemon::stop(old)?;
            let _ = std::fs::remove_dir_all(store_dir(old_rep));
        }
    }
    let (daemon, mut clients, rep) = live.expect("at least one set-up");
    let store = store_dir(rep);

    // Ground truth before the timed phase: one-shot answers, checked
    // against the known answers.
    let mut truth: BTreeMap<Pair, Response> = BTreeMap::new();
    for p in sets.iter().flatten() {
        if truth.contains_key(p) {
            continue;
        }
        let (resp, v) = one_shot(*p, &benches)?;
        let (bench, label) = p.label(&benches);
        if let Err(e) = ctx.answers.check(&bench, &label, &v) {
            out.fail(e);
        }
        truth.insert(*p, resp);
    }

    let budget = Duration::from_secs_f64(ctx.seconds);
    let ids = Mutex::new(0u64);
    let depth_max = Mutex::new(0u64);
    let done = std::sync::atomic::AtomicBool::new(false);
    let start = PassStart::now();
    let served: Vec<Vec<Served>> = std::thread::scope(|s| {
        // Traced runs poll the daemon's queue depth from an observer
        // connection.
        let poller = ctx.tracer.on().then(|| {
            s.spawn(|| {
                let Ok(mut cl) = Client::connect(daemon.addr) else {
                    return;
                };
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Ok(st) = cl.stats() {
                        let d = st.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
                        let mut m = depth_max.lock().expect("depth poisoned");
                        *m = (*m).max(d);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        });
        let hs: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, cl)| {
                let (benches, set, ids, tr) = (&benches, &sets[c], &ids, &ctx.tracer);
                s.spawn(move || client_loop(cl, c, ctx.seed, budget, benches, set, tr, ids))
            })
            .collect();
        let res = hs
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(p) = poller {
            let _ = p.join();
        }
        res
    });
    let mut pass = start.finish(0.0, 0);
    let stats = clients[0].stats()?;
    drop(clients);
    daemon.stop()?;

    // Byte identity, determinism, latency.
    let mut sim_ms = 0.0;
    for sv in served.iter().flatten() {
        out.attempted += 1;
        let (bench, label) = sv.pair.label(&benches);
        let resp = match &sv.resp {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{bench} {label}: {e}"));
                continue;
            }
        };
        // A verify response's simulated time is `TimeBreakdown::total`,
        // a sum over a `HashMap` whose order (and so whose last bits)
        // varies between identical requests. Its report bytes and launch
        // count are still checked exactly here, and the verify run's own
        // clock time is checked bit-exactly by verify-large and
        // edit-small.
        let sim = if ACTIONS[sv.pair.action] == Action::Verify {
            "unordered-sum".to_string()
        } else {
            format!("{:016x}", resp.sim_time_us.to_bits())
        };
        ctx.ledger.record(
            format!("{bench}/{}x{}/{label}", SCALE.n, SCALE.iters),
            format!("sim={sim} launches={}", resp.kernel_launches),
        );
        sim_ms += resp.sim_time_us / 1e3;
        let want = &truth[&sv.pair];
        if resp.report != want.report || resp.exit_code != want.exit_code {
            out.fail(format!(
                "{bench} {label}: served report differs from the one-shot answer"
            ));
            continue;
        }
        out.latencies_ms.push(sv.latency_ms);
    }
    // The clients' cycles overlap, so the timed phase is booked as one
    // pass whose CPU is per cycle of every client (5 rounds over each
    // client's 24 pairs).
    let cycles =
        out.attempted as f64 / (EDIT_EVERY * sets.iter().map(Vec::len).sum::<usize>()) as f64;
    pass.units = out.latencies_ms.len() as f64;
    pass.samples = out.latencies_ms.len();
    pass.cpu_s /= cycles.max(1e-9);
    out.passes.push(pass);

    if ctx.tracer.on() {
        let service = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3;
        let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        let l = &mut out.layers;
        l.insert("sim.time_ms".into(), sim_ms);
        l.insert("serve.service_p50_ms".into(), service("p50_us"));
        l.insert("serve.service_p95_ms".into(), service("p95_us"));
        l.insert(
            "serve.wire_queue_ms".into(),
            percentile(&out.latencies_ms, 0.5) - service("p50_us"),
        );
        l.insert(
            "serve.queue_depth_max".into(),
            *depth_max.lock().expect("depth poisoned") as f64,
        );
        for k in ["rejected", "deadline_missed", "protocol_errors"] {
            l.insert(format!("serve.{k}"), count(k));
        }
        if let Some(Json::Arr(stages)) = stats.get("stages") {
            for st in stages {
                let name = st.get("stage").and_then(Json::as_str).unwrap_or("?");
                let h = st.get("hits").and_then(Json::as_u64).unwrap_or(0) as f64;
                let m = st.get("misses").and_then(Json::as_u64).unwrap_or(0) as f64;
                l.insert(format!("pipeline.{name}.hit_ratio"), ratio(h, h + m));
            }
        }
        let disk = stats.get("disk");
        let dget = |k: &str| {
            disk.and_then(|d| d.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        l.insert(
            "cache.disk_hit_ratio".into(),
            ratio(dget("hits"), dget("hits") + dget("misses")),
        );
        let mut programs: Vec<Pair> = truth.keys().copied().collect();
        programs.dedup_by_key(|p| (p.bench, p.variant));
        codec_probe(ctx, out, &benches, &programs, &store)?;
        journal_probe(out, &benches, &programs)?;
        let total_ms: f64 = served.iter().flatten().map(|s| s.latency_ms).sum();
        let spans = 2 * served.iter().map(Vec::len).sum::<usize>();
        out.layers.insert(
            "tracing.overhead_ratio".into(),
            crate::layers::span_cost_ratio(spans, total_ms),
        );
        let srcs: Vec<(String, String)> = programs
            .iter()
            .map(|p| {
                (
                    benches[p.bench].name.to_string(),
                    p.source(&benches).to_string(),
                )
            })
            .collect();
        crate::layers::probe_all(ctx, out, &srcs);
    }
    let _ = std::fs::remove_dir_all(&store);
    Ok(())
}

/// `DiskCache::{store_*, load_*}` on every artifact of the probed
/// programs, in a scratch store.
fn codec_probe(
    ctx: &Ctx,
    out: &mut Outcome,
    benches: &[Benchmark],
    programs: &[Pair],
    store: &Path,
) -> Result<(), String> {
    let scratch = store.with_extension("codec");
    let _ = std::fs::remove_dir_all(&scratch);
    let disk = DiskCache::new(&scratch);
    let session = Session::builder().build();
    let tr = &ctx.tracer;
    for (i, p) in programs.iter().enumerate() {
        let id = crate::layers::PROBE_IDS / 2 + i as u64;
        out.programs.insert(id, benches[p.bench].name.to_string());
        let fe = session
            .frontend(p.source(benches))
            .map_err(|e| e.to_string())?;
        let tra = session
            .translate(&fe, &TranslateOptions::default())
            .map_err(|e| e.to_string())?;
        let eopts = openarc_core::ExecOptions::default();
        let plan = session.plan(&tra, &eopts);
        let run = session.execute(&tra, &eopts).map_err(|e| e.to_string())?;
        let root = tr.begin("probe", id, NO_SPAN);
        tr.span("cache.store", id, root, |_| {
            disk.store_frontend(&fe);
            disk.store_translated(Stage::Analysis, &tra);
            disk.store_run(plan.id, &run, &[]);
        });
        tr.span("cache.load", id, root, |_| {
            let _ = disk.load_frontend(fe.id);
            let _ = disk.load_translated(Stage::Analysis, tra.id);
            let _ = disk.load_run(plan.id);
        });
        tr.end(root);
    }
    let st = disk.stats();
    if st.hits != 3 * programs.len() as u64 {
        out.fail(format!(
            "cache probe: {} of {} loads hit",
            st.hits,
            3 * programs.len()
        ));
    }
    out.layers.insert("cache.corrupt".into(), st.corrupt as f64);
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

/// The same `run` request with the journal on and off, one-shot.
fn journal_probe(
    out: &mut Outcome,
    benches: &[Benchmark],
    programs: &[Pair],
) -> Result<(), String> {
    let (mut on_ms, mut off_ms, mut events) = (0.0, 0.0, 0usize);
    for p in programs {
        for journal in [false, true] {
            let session = Session::builder().build();
            let mut req = Request::new(Action::Run, p.source(benches));
            req.journal = journal;
            let t = Instant::now();
            let resp = handle(&session, &req).map_err(|e| e.to_string())?;
            let ms = ms_since(t);
            if journal {
                on_ms += ms;
                events += resp.events.len();
            } else {
                off_ms += ms;
            }
        }
    }
    out.layers.insert(
        "trace.journal_events".into(),
        events as f64 / programs.len().max(1) as f64,
    );
    out.layers.insert(
        "trace.journal_overhead_ratio".into(),
        ratio(on_ms, off_ms) - 1.0,
    );
    Ok(())
}
