//! Multi-node cluster benchmark: router + worker fleet under a
//! characterization storm, with a mid-storm worker kill.
//!
//! Phases:
//!
//! 1. **Warm** — a dedicated in-process worker pair exercises the
//!    cache-warming snapshot protocol: the peer calibrates two keys,
//!    `warm_worker` copies them into a cold joiner, and the joiner's
//!    answer must be bit-identical to the peer's.
//! 2. **Sessions** — streaming sessions opened *through the router*
//!    push ragged chunks and must verdict bit-identically to a one-shot
//!    `Characterize` of the concatenated samples through the same
//!    router (acceptance criterion: streaming == one-shot).
//! 3. **Storm** — client threads hammer the router with a fixed set of
//!    `K = windows × pdn_pcts` calibration keys. Mid-storm, one worker
//!    dies (in-process: a watcher shuts it down at ~60% of the planned
//!    requests; external: the CI job `kill -9`s it). Every request must
//!    still come back exactly once — zero lost, zero duplicated, zero
//!    error responses — and repeats of a key must render identical
//!    bytes even when failover moved the key to another worker.
//! 4. **Accounting** — per-shard memo-cache hit ratio from each
//!    reachable worker's own `Stats`, fill balance from the
//!    deterministic ring assignment, tail latency from a telemetry
//!    histogram, and the router's forwarded/rerouted/rejected counters.
//!
//! Results go to stdout plus a normal run manifest. Wall-clock numbers
//! never land in manifest goldens; the repository benchmark
//! (`perfbench`) is where request throughput and latency are measured.
//!
//! Flags: `--smoke` shrinks the fleet and the storm for CI;
//! `--router HOST:PORT` targets an external router (the CI cluster
//! smoke job does this) with `--worker HOST:PORT` (repeatable) naming
//! its workers for stats collection; `--min-storm-ms N` keeps the storm
//! running at least that long so an external kill lands mid-storm;
//! `--expect-failover` makes a detected worker death an acceptance
//! requirement rather than an observation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use didt_bench::{CostClass, Experiment, ExperimentRunner, SchedReport};
use didt_serve::{
    warm_worker, CharacterizeSpec, Client, ClientConfig, ClientError, HashRing, Request,
    RequestBody, ResponsePayload, Router, RouterConfig, ServeConfig, Server, Service, SessionSpec,
    TraceSource, PROTOCOL_VERSION,
};
use didt_telemetry::{Json, MetricsRegistry};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn arg_values(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                out.push(v);
            }
        }
    }
    out
}

/// Ring replica count; must match the router's (`RouterConfig::new`
/// default) for the local fill-share computation to mirror its routing.
const REPLICAS: usize = 64;

/// The storm's calibration key set: every window × impedance pair is
/// one shard key (Haar/periodic family).
const WINDOWS: [usize; 6] = [16, 32, 64, 128, 256, 512];
const PDN_PCTS: [f64; 2] = [100.0, 150.0];

/// Deterministic synthetic current trace for a key. Pure function of
/// (window, pdn_pct, len) so every thread, process, and run issues
/// byte-identical requests.
fn key_trace(window: usize, pdn_pct: f64, len: usize) -> Vec<f64> {
    let w = window as f64;
    (0..len)
        .map(|i| {
            let t = i as f64;
            20.0 + w.sqrt() * (t / 7.3).sin()
                + (pdn_pct / 40.0) * (t / 2.1).sin()
                + 3.0 * (t / (w + 1.0)).cos()
        })
        .collect()
}

/// One storm request: a (driver slot, calibration key) pair. The
/// cost hint is the window length — bigger windows calibrate and
/// render more data — so the runner cuts blocks with fewer heavy keys
/// each, and idle workers claim from the others' blocks.
#[derive(Clone, Copy)]
struct StormItem {
    key: usize,
    window: usize,
    pdn_pct: f64,
}

fn storm_cost(it: &StormItem) -> u64 {
    it.window as u64
}

fn storm_spec(window: usize, pdn_pct: f64) -> CharacterizeSpec {
    CharacterizeSpec {
        trace: TraceSource::Inline(key_trace(window, pdn_pct, 1024)),
        pdn_pct,
        window,
        gauss_windows: 30,
        ..CharacterizeSpec::default()
    }
}

struct StormCounts {
    ok: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    lost: AtomicU64,
    duplicated: AtomicU64,
    divergent: AtomicU64,
    completed: AtomicU64,
}

fn u64_stat(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_f64().map_or(0, |v| v as u64)
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let expect_failover = std::env::args().any(|a| a == "--expect-failover");
    let external_router = arg_value("--router");
    let min_storm_ms: u64 = arg_value("--min-storm-ms")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0);
    let external = external_router.is_some();

    let mut exp = Experiment::start("storm_report");
    exp.param("smoke", if smoke { 1.0 } else { 0.0 });
    exp.param("external", if external { 1.0 } else { 0.0 });

    // ------------------------------------------------------------------
    // Topology: external router + named workers, or an in-process fleet.
    // ------------------------------------------------------------------
    let fleet = if smoke { 2 } else { 3 };
    let mut worker_addrs: Vec<String> = Vec::new();
    // In-process workers live behind Option so the kill watcher can
    // take one out mid-storm.
    let worker_slots: Arc<Mutex<Vec<Option<Server>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut own_router: Option<Router> = None;
    let router_addr = match &external_router {
        Some(addr) => {
            worker_addrs = arg_values("--worker");
            addr.clone()
        }
        None => {
            let mut slots = worker_slots.lock().unwrap();
            for _ in 0..fleet {
                let server = Server::start(
                    ServeConfig {
                        workers: 2,
                        ..ServeConfig::default()
                    },
                    Service::standard()?,
                )?;
                worker_addrs.push(server.local_addr().to_string());
                slots.push(Some(server));
            }
            drop(slots);
            let mut config = RouterConfig::new("127.0.0.1:0".to_string(), worker_addrs.clone());
            // The forward path, not the prober, must discover the
            // mid-storm death: that is what increments `rerouted`.
            config.probe_interval_ms = 60_000;
            config.warm_on_rejoin = false;
            let router = Router::start(config)?;
            let addr = router.local_addr().to_string();
            own_router = Some(router);
            addr
        }
    };
    let workers = if external {
        worker_addrs.len().max(1)
    } else {
        fleet
    };
    exp.param("workers", workers as f64);
    println!(
        "storm_report driving router {router_addr} ({workers} workers, smoke: {smoke}, \
         external: {external})"
    );

    let mut router_client = Client::connect(&router_addr)?;
    let version = router_client.ping()?;
    if version != PROTOCOL_VERSION {
        return Err(
            format!("router speaks protocol {version}, expected {PROTOCOL_VERSION}").into(),
        );
    }

    // ------------------------------------------------------------------
    // Phase 1: cache-warming snapshot between a dedicated worker pair.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let peer = Server::start(ServeConfig::default(), Service::standard()?)?;
    let joiner = Server::start(ServeConfig::default(), Service::standard()?)?;
    // 87.5% impedance: disjoint from the storm's key set, so even when
    // this phase is pointed at shared infrastructure it cannot alias a
    // storm shard.
    let warm_specs = [storm_spec(64, 87.5), storm_spec(128, 87.5)];
    let mut peer_client = Client::connect(peer.local_addr().to_string())?;
    let mut peer_answers = Vec::new();
    for spec in &warm_specs {
        peer_answers.push(peer_client.characterize(spec.clone(), None)?.render());
    }
    let exported = peer_client
        .snapshot_export(didt_serve::SNAPSHOT_MAX_ENTRIES)?
        .len() as u64;
    let installed = warm_worker(
        &peer.local_addr().to_string(),
        &joiner.local_addr().to_string(),
        didt_serve::SNAPSHOT_MAX_ENTRIES,
    )?;
    let mut joiner_client = Client::connect(joiner.local_addr().to_string())?;
    let mut warm_identical = true;
    for (spec, want) in warm_specs.iter().zip(&peer_answers) {
        let got = joiner_client.characterize(spec.clone(), None)?.render();
        if got != *want {
            warm_identical = false;
            eprintln!("warmed joiner diverged from peer on window {}", spec.window);
        }
    }
    // The warmed entries must land as pre-completed memo slots: the
    // joiner answered both keys without a single gain calibration.
    let joiner_stats = joiner_client.stats()?;
    let warmed_as_hits = joiner_stats
        .get("cache")
        .and_then(Json::as_arr)
        .is_some_and(|classes| {
            classes.iter().any(|c| {
                u64_stat(c, &["requests"]) > 0
                    && u64_stat(c, &["computed"]) == 0
                    && c.get("name").and_then(Json::as_str) == Some("gains")
            })
        });
    drop(peer_client);
    drop(joiner_client);
    let _ = peer.shutdown();
    let _ = joiner.shutdown();
    exp.subrun(
        "warm",
        installed > 0 && warm_identical,
        t_phase.elapsed().as_secs_f64(),
    );
    println!(
        "warm: {exported} exported, {installed} installed, bit-identical: {warm_identical}, \
         served from warmed slots: {warmed_as_hits}"
    );

    // ------------------------------------------------------------------
    // Phase 2: streaming sessions through the router, verdicts vs
    // one-shot Characterize over the concatenated samples.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let session_keys: &[(usize, f64)] = if smoke {
        &[(64, 100.0)]
    } else {
        &[(64, 100.0), (128, 150.0)]
    };
    let mut sessions_identical = true;
    for &(window, pct) in session_keys {
        let trace = key_trace(window, pct, 1234);
        let spec = CharacterizeSpec {
            trace: TraceSource::Inline(trace.clone()),
            pdn_pct: pct,
            window,
            gauss_windows: 30,
            ..CharacterizeSpec::default()
        };
        let one_shot = router_client.characterize(spec, None)?;
        let session = router_client.session_open(SessionSpec {
            pdn_pct: pct,
            window,
            gauss_windows: 30,
            ..SessionSpec::default()
        })?;
        // Ragged pushes: chunk sizes deliberately misaligned with the
        // window so frames split mid-window.
        let mut offset = 0usize;
        for chunk in [1usize, 7, 100, 63, window, 500, usize::MAX] {
            let end = trace.len().min(offset.saturating_add(chunk));
            router_client.session_push(session, trace[offset..end].to_vec())?;
            offset = end;
            if offset == trace.len() {
                break;
            }
        }
        let verdict = router_client.session_verdict(session, None)?;
        router_client.session_close(session)?;
        // The verdict carries the router-scoped session id on top of
        // the characterize report; strip it before comparing bytes.
        let stripped = match verdict {
            Json::Obj(pairs) => {
                Json::Obj(pairs.into_iter().filter(|(k, _)| k != "session").collect())
            }
            other => other,
        };
        if stripped.render() != one_shot.render() {
            sessions_identical = false;
            eprintln!("session verdict diverged from one-shot on window {window}");
        }
    }
    exp.subrun(
        "sessions",
        sessions_identical,
        t_phase.elapsed().as_secs_f64(),
    );
    println!(
        "sessions: {} streamed through the router, bit-identical to one-shot: \
         {sessions_identical}",
        session_keys.len()
    );

    // ------------------------------------------------------------------
    // Phase 3: the storm, with a mid-storm worker kill.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let keys: Vec<(usize, f64)> = WINDOWS
        .iter()
        .flat_map(|&w| PDN_PCTS.iter().map(move |&p| (w, p)))
        .collect();
    let shard_keys: Vec<u64> = keys
        .iter()
        .map(|&(w, p)| {
            Request {
                id: 0,
                deadline_ms: None,
                body: RequestBody::Characterize(storm_spec(w, p)),
            }
            .shard_key()
            .expect("characterize always has a shard key")
        })
        .collect();
    let distinct: std::collections::BTreeSet<u64> = shard_keys.iter().copied().collect();
    let collisions = (keys.len() - distinct.len()) as u64;

    let threads = 4usize;
    let min_iters = if smoke { 4usize } else { 6 };
    let planned = (threads * min_iters * keys.len()) as u64;
    let counts = Arc::new(StormCounts {
        ok: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        lost: AtomicU64::new(0),
        duplicated: AtomicU64::new(0),
        divergent: AtomicU64::new(0),
        completed: AtomicU64::new(0),
    });
    let latency = MetricsRegistry::global().histogram("storm.latency_ns");
    // First rendered answer per key; every repeat must match it, even
    // after its shard failed over to another worker.
    let first_renders: Arc<Mutex<Vec<Option<String>>>> =
        Arc::new(Mutex::new(vec![None; keys.len()]));
    let storm_done = Arc::new(AtomicBool::new(false));
    let killed = Arc::new(AtomicBool::new(false));
    println!(
        "storm: driving {} keys x {threads} threads (>= {min_iters} sweeps, >= {min_storm_ms} ms)",
        keys.len()
    );

    // The fleet driver is the sweep runner (DESIGN.md §16): each round
    // flattens (driver slot × key) into one item list, cut into
    // cost-balanced blocks so the heavy window-512 keys spread across
    // driver workers. Each worker thread lazily opens its own router
    // connection, cached in a thread local for the round.
    let items: Vec<StormItem> = (0..threads)
        .flat_map(|_| {
            keys.iter().enumerate().map(|(ki, &(w, p))| StormItem {
                key: ki,
                window: w,
                pdn_pct: p,
            })
        })
        .collect();
    thread_local! {
        static STORM_CLIENT: std::cell::RefCell<Option<Client>> =
            const { std::cell::RefCell::new(None) };
    }
    let drive_one = |_: usize, it: &StormItem| -> Result<(), String> {
        STORM_CLIENT.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.is_none() {
                let mut client = Client::connect(&router_addr).map_err(|e| e.to_string())?;
                client.set_config(ClientConfig::with_retries(4));
                *slot = Some(client);
            }
            let client = slot.as_mut().expect("client installed above");
            let t0 = Instant::now();
            match client.call(
                RequestBody::Characterize(storm_spec(it.window, it.pdn_pct)),
                None,
            ) {
                Ok(resp) => {
                    latency.record_duration(t0.elapsed());
                    match resp.payload {
                        ResponsePayload::Ok { result, .. } => {
                            counts.ok.fetch_add(1, Ordering::Relaxed);
                            let render = result.render();
                            let mut firsts = first_renders.lock().unwrap();
                            match &firsts[it.key] {
                                Some(want) if *want != render => {
                                    counts.divergent.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(_) => {}
                                None => firsts[it.key] = Some(render),
                            }
                        }
                        ResponsePayload::Rejected { .. } => {
                            counts.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        ResponsePayload::Error { .. } => {
                            counts.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // An id mismatch means a duplicated or misrouted
                // answer; anything else is a request lost in
                // transport.
                Err(ClientError::Protocol(_)) => {
                    counts.duplicated.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    counts.lost.fetch_add(1, Ordering::Relaxed);
                }
            }
            counts.completed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    };

    let runner = ExperimentRunner::with_threads(threads);
    let mut driver_report = SchedReport::default();
    let mut rounds = 0usize;
    let storm_start = Instant::now();
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        // The kill watcher: once ~60% of the planned requests have
        // completed, shut a worker down under the storm. External runs
        // skip this — the CI job kill -9s a worker process instead.
        if !external {
            let slots = Arc::clone(&worker_slots);
            let counts = Arc::clone(&counts);
            let done = Arc::clone(&storm_done);
            let killed = Arc::clone(&killed);
            let trigger = (planned * 3) / 5;
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if counts.completed.load(Ordering::Relaxed) >= trigger {
                        let victim = slots.lock().unwrap()[0].take();
                        if let Some(server) = victim {
                            let _ = server.shutdown();
                            killed.store(true, Ordering::Release);
                        }
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        loop {
            let (results, report) =
                runner.run_costed_reported(&items, CostClass::Hinted(storm_cost), drive_one);
            driver_report.absorb(&report);
            rounds += 1;
            if let Some(err) = results.into_iter().find_map(Result::err) {
                storm_done.store(true, Ordering::Release);
                return Err(err.into());
            }
            if rounds >= min_iters && storm_start.elapsed().as_millis() as u64 >= min_storm_ms {
                storm_done.store(true, Ordering::Release);
                return Ok(());
            }
        }
    })?;
    let storm_secs = t_phase.elapsed().as_secs_f64();
    let issued = counts.completed.load(Ordering::Relaxed);
    let ok = counts.ok.load(Ordering::Relaxed);
    let rejected = counts.rejected.load(Ordering::Relaxed);
    let errors = counts.errors.load(Ordering::Relaxed);
    let lost = counts.lost.load(Ordering::Relaxed);
    let duplicated = counts.duplicated.load(Ordering::Relaxed);
    let divergent = counts.divergent.load(Ordering::Relaxed);
    let throughput = issued as f64 / storm_secs;
    let storm_clean = errors == 0 && lost == 0 && duplicated == 0 && divergent == 0;
    exp.subrun("storm", storm_clean, storm_secs);
    exp.param("storm_requests", issued as f64);
    exp.param("storm_threads", threads as f64);
    exp.scheduler(&driver_report);
    println!(
        "storm: {issued} requests in {storm_secs:.2} s ({throughput:.1} req/s): {ok} ok, \
         {rejected} rejected, {errors} errors, {lost} lost, {duplicated} duplicated, \
         {divergent} divergent"
    );
    let busy_ms: Vec<String> = driver_report
        .worker_busy_ns
        .iter()
        .map(|&ns| format!("{:.0}", ns as f64 / 1e6))
        .collect();
    println!(
        "driver: {rounds} rounds, {} steal hits, busy ms per worker [{}]",
        driver_report.steal_hits,
        busy_ms.join(", ")
    );

    // ------------------------------------------------------------------
    // Phase 4: accounting — router counters, per-worker cache ratios,
    // ring fill balance.
    // ------------------------------------------------------------------
    let router_stats = router_client.stats()?;
    let rerouted = u64_stat(&router_stats, &["router", "rerouted"]);
    let forwarded = u64_stat(&router_stats, &["router", "forwarded"]);
    let route_version = u64_stat(&router_stats, &["router", "route_table_version"]);
    let healthy_after = router_stats
        .get("router")
        .and_then(|r| r.get("workers"))
        .and_then(Json::as_arr)
        .map_or(0, |ws| {
            ws.iter()
                .filter(|w| w.get("healthy") == Some(&Json::Bool(true)))
                .count()
        });
    let worker_died = killed.load(Ordering::Acquire) || healthy_after < workers || rerouted > 0;

    let ring = HashRing::new(workers, REPLICAS);
    let mut owned = vec![0usize; workers];
    for &sk in &shard_keys {
        owned[ring.route(sk)] += 1;
    }
    let max_fill_share = owned
        .iter()
        .map(|&c| c as f64 / keys.len() as f64)
        .fold(0.0f64, f64::max);

    let mut min_hit_ratio = f64::INFINITY;
    let mut reachable = 0usize;
    for addr in &worker_addrs {
        // The killed worker is unreachable by design.
        if let Ok(stats) = Client::connect(addr)
            .map_err(ClientError::Io)
            .and_then(|mut c| c.stats())
        {
            let hit_ratio = stats
                .get("cache_hit_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            min_hit_ratio = min_hit_ratio.min(hit_ratio);
            reachable += 1;
        }
    }
    if !min_hit_ratio.is_finite() {
        min_hit_ratio = 0.0;
    }
    let min_hit_floor = if smoke { 0.85 } else { 0.9 };
    exp.subrun("failover", storm_clean && forwarded > 0, 0.0);
    println!(
        "shards: {} keys, {collisions} collisions, max fill share {max_fill_share:.3}, \
         min worker hit ratio {min_hit_ratio:.4} over {reachable} reachable workers",
        keys.len()
    );
    println!(
        "failover: worker died: {worker_died}, rerouted: {rerouted}, route table v{route_version}, \
         {healthy_after}/{workers} healthy after storm"
    );

    drop(router_client);
    let router_report = own_router.map(Router::shutdown);
    for server in worker_slots.lock().unwrap().drain(..).flatten() {
        let _ = server.shutdown();
    }

    // ------------------------------------------------------------------
    // Manifest + acceptance checks.
    // ------------------------------------------------------------------
    exp.golden("shard_collisions", collisions as f64);
    exp.golden("sessions_bit_identical", f64::from(sessions_identical));
    exp.golden("storm_zero_lost", f64::from(lost == 0));
    exp.finish()?;
    if let Some(r) = router_report {
        println!(
            "router: {} forwarded, {} rerouted, {} rejected, {} unavailable",
            r.forwarded, r.rerouted, r.rejected, r.unavailable
        );
    }

    // Acceptance criteria (ISSUE 9): distinct shards, nothing lost or
    // duplicated under a mid-storm kill, hot per-shard caches, and
    // streaming verdicts bit-identical to one-shot characterization.
    let mut failures = Vec::new();
    if collisions != 0 {
        failures.push(format!("{collisions} cross-shard key collisions"));
    }
    if !sessions_identical {
        failures.push("streaming session verdicts diverged from one-shot".to_string());
    }
    if installed == 0 || !warm_identical {
        failures.push(format!(
            "cache warming installed {installed} entries, bit-identical: {warm_identical}"
        ));
    }
    if !warmed_as_hits {
        failures.push("warmed joiner recalibrated instead of serving warmed slots".to_string());
    }
    if errors != 0 || lost != 0 || duplicated != 0 || divergent != 0 {
        failures.push(format!(
            "storm saw {errors} errors, {lost} lost, {duplicated} duplicated, \
             {divergent} divergent responses"
        ));
    }
    if ok == 0 {
        failures.push("storm produced no successful responses".to_string());
    }
    if reachable == 0 {
        failures.push("no worker reachable for stats".to_string());
    } else if min_hit_ratio < min_hit_floor {
        failures.push(format!(
            "min per-shard cache hit ratio {min_hit_ratio:.4} < {min_hit_floor}"
        ));
    }
    if max_fill_share > 0.75 {
        failures.push(format!(
            "ring fill imbalance: one worker owns {max_fill_share:.3} of the keys"
        ));
    }
    if !external && rerouted == 0 {
        failures.push("in-process kill produced no forward-path reroutes".to_string());
    }
    if expect_failover && !worker_died {
        failures.push("--expect-failover, but no worker death was observed".to_string());
    }
    if failures.is_empty() {
        println!("storm_report: all acceptance checks passed");
        Ok(())
    } else {
        Err(format!("storm_report failures: {failures:?}").into())
    }
}
