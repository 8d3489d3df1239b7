//! The `service` part of a run: one `NxService` on `Nx::power9()`, fed
//! by one generator thread on an open-loop, seeded Poisson schedule.
//!
//! Three tenants share the engine. `rpc` (Latency class, most arrivals)
//! sends 1–4 KiB JSON through the canned `json` profile in zlib framing;
//! `logs` (Latency) sends 4–16 KiB log lines at `Fastest` in gzip;
//! `scan` (Background, a few percent) sends tens of KiB of the workload's
//! content at default options, i.e. through the cycle model. With payloads this small the
//! cost is matcher set-up, canned tables, Adler-32 and zlib framing,
//! admission, scheduling and queue wait rather than the match search.
//! Only `rpc` uses a profile and only `scan` the cycle model, so a gain
//! for one class that costs another shows; a `scan` job holds the engine,
//! so a faster cycle model shows in the `rpc` tail.
//!
//! Each request is timed from when it was due, so a stall also charges
//! the requests queued behind it.

use crate::trace::Tracer;
use crate::util::{gzip_oracle, median, quantile, Corpus, Outcome, Rng};
use crate::Part;
use nx_core::service::{ServiceConfig, Ticket};
use nx_core::{software, CompressOptions, Format, Nx, QosClass, TenantSpec};
use nx_corpus::CorpusKind;
use nx_deflate::lz77::hash4::Hash4Matcher;
use nx_deflate::lz77::Tokenizer;
use nx_deflate::{adler32::adler32, profile_counters, zlib, Engine, Level};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rates of the three fixed load points, in requests per second.
const RATES: [f64; 3] = [1000.0, 2000.0, 4000.0];
/// The `rpc` p99 latency limit for `max_rps_at_slo`, in microseconds.
const SLO_US: f64 = 20_000.0;
/// The `max_rps_at_slo` ladder: `LADDER_BASE * LADDER_STEP^i` req/s.
const LADDER_BASE: f64 = 250.0;
const LADDER_STEP: f64 = 1.04;
const LADDER_RUNGS: usize = 128;
/// Ladder phases a run budgets for: seven bisection steps plus retries.
const PROBES: f64 = 11.0;
/// Windows of arrivals a ladder phase's `rpc` p99 is read in.
const SLO_WINDOWS: usize = 4;
/// Segments the middle-rate reading is split into.
const MID_SEGMENTS: usize = 8;

const RPC: usize = 0;
const LOGS: usize = 1;
const SCAN: usize = 2;
/// Arrival shares of `rpc` and `logs`; `scan` takes the rest.
const SHARES: [f64; 2] = [0.85, 0.12];
/// Distinct payloads per tenant.
const POOL: [usize; 3] = [512, 256, 64];
/// Window credits and queue depth far above any backlog a passing rate
/// builds, so overload shows as latency and no request is refused.
const CREDITS: u32 = 1 << 20;
const ENGINE_DEPTH: usize = 1 << 20;

struct Tenant {
    name: &'static str,
    class: QosClass,
    format: Format,
    opts: CompressOptions,
    payloads: Vec<Vec<u8>>,
}

struct Service {
    nx: Nx,
    tenants: Vec<Tenant>,
    json_dict: Vec<u8>,
    json_dict_id: u32,
    rpc_level: u32,
    seed: u64,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        engine_depth: ENGINE_DEPTH,
        ..ServiceConfig::default()
    }
}

pub fn setup(seed: u64, corpus: Corpus) -> ServicePart {
    let mut rng = Rng::new(seed, "service.inputs");
    let mut pool = |n: usize, lo: usize, hi: usize, gen: &dyn Fn(u64, usize) -> Vec<u8>| {
        (0..n)
            .map(|_| {
                let len = rng.log_uniform(lo, hi);
                gen(rng.payload_seed(), len)
            })
            .collect::<Vec<_>>()
    };
    let rpc = pool(POOL[RPC], 1 << 10, 4 << 10, &|s, n| {
        CorpusKind::Json.generate(s, n)
    });
    let logs = pool(POOL[LOGS], 4 << 10, 16 << 10, &|s, n| {
        CorpusKind::Logs.generate(s, n)
    });
    let scan = pool(POOL[SCAN], 16 << 10, 48 << 10, &|s, n| {
        corpus.generate(s, n)
    });
    let registry = nx_core::profiles::default_registry();
    let (json_id, json) = registry
        .by_name("json")
        .expect("the default registry ships a json profile");
    let nx = Nx::power9();
    let tenants = vec![
        Tenant {
            name: "rpc",
            class: QosClass::Latency,
            format: Format::Zlib,
            opts: CompressOptions::new().with_profile(json_id),
            payloads: rpc,
        },
        Tenant {
            name: "logs",
            class: QosClass::Latency,
            format: Format::Gzip,
            opts: CompressOptions::from_level(Level::Fastest),
            payloads: logs,
        },
        Tenant {
            name: "scan",
            class: QosClass::Background,
            format: Format::Gzip,
            opts: CompressOptions::default(),
            payloads: scan,
        },
    ];
    let s = Service {
        nx,
        tenants,
        json_dict: json.dict().to_vec(),
        json_dict_id: json.dict_id(),
        rpc_level: json.level().get(),
        seed,
    };
    // Warm-up: a service started and a few requests of every tenant
    // served closed-loop.
    let svc = s.nx.service(config());
    for t in &s.tenants {
        let h = svc.open_window_with(TenantSpec::new(t.name, t.class, CREDITS), t.opts);
        for p in t.payloads.iter().take(8) {
            if let Ok(ticket) = h.submit_with(p.clone(), t.format, t.opts) {
                let _ = ticket.wait();
            }
        }
    }
    svc.close();
    ServicePart {
        svc: s,
        ladder: Ladder::new(),
        p50: Vec::new(),
        p99: Vec::new(),
        traced: Vec::new(),
        profile: [0; 3],
    }
}

#[derive(Clone, Copy)]
struct Arrival {
    at: Duration,
    tenant: usize,
    payload: usize,
}

/// One request as the generator and its tenant's collector saw it.
struct Req {
    tenant: usize,
    payload: usize,
    due: Instant,
    submitted: Instant,
    admitted: Instant,
    /// Completion instant of a verified output; `None` if the request
    /// was refused, failed or its output did not round-trip.
    done: Option<Instant>,
}

struct Pending {
    ticket: Ticket,
    arrival: Arrival,
    due: Instant,
    submitted: Instant,
    admitted: Instant,
}

/// The service counters of one phase.
#[derive(Default)]
struct Counters {
    admitted: u64,
    completed: u64,
    batches: u64,
    coalesced: u64,
    rejected_no_credit: u64,
    rejected_queue_full: u64,
    depth_p99: u64,
    jain: f64,
}

struct Phase {
    rate: f64,
    reqs: Vec<Req>,
    /// The generator stopped early: the backlog already ruled the rate
    /// out.
    aborted: bool,
    counters: Counters,
    /// Why requests failed (first few).
    errors: Vec<String>,
    /// Concatenated gzip members and their inputs, for `gzip -dc`.
    oracle: (Vec<u8>, Vec<u8>),
}

impl Phase {
    /// `rpc` latencies in µs; refused or failed requests count as misses.
    fn rpc_latency_us(&self) -> Vec<f64> {
        self.reqs
            .iter()
            .filter(|r| r.tenant == RPC)
            .map(|r| {
                r.done
                    .map_or(f64::INFINITY, |d| (d - r.due).as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// Requests still unfinished when the last one arrived: completed
    /// after it, refused or failed.
    fn backlog_at_end(&self) -> usize {
        let last_due = self.reqs.iter().map(|r| r.due).max();
        self.reqs
            .iter()
            .filter(|r| r.done.is_none_or(|d| Some(d) > last_due))
            .count()
    }

    /// Meets the limit: `rpc` p99 within `SLO_US` in all but one of the
    /// phase's `SLO_WINDOWS` windows of arrivals, and the backlog did not
    /// grow: when arrivals stop, no more requests are unfinished than
    /// arrive within one latency limit. A rate beyond the service's
    /// capacity builds a backlog that fails every later window, while one
    /// host stall fails one window only.
    fn meets_slo(&self) -> bool {
        let lat = self.rpc_latency_us();
        let window = lat.len().div_ceil(SLO_WINDOWS).max(1);
        let late = lat
            .chunks(window)
            .filter(|w| quantile(w, 0.99) > SLO_US)
            .count();
        !self.aborted
            && !lat.is_empty()
            && late <= 1
            && self.backlog_at_end() as f64 <= self.rate * SLO_US * 1e-6
    }

    /// Counts every request as an operation, failed unless verified; on
    /// the first phase of a run also checks the gzip sample with `gzip -dc`.
    fn account(&self, o: &mut Outcome, oracle: bool) {
        o.attempted += self.reqs.len() as u64;
        o.failed += self.reqs.iter().filter(|r| r.done.is_none()).count() as u64;
        o.errors.extend(self.errors.iter().cloned());
        if oracle {
            if let Err(e) = gzip_oracle(&self.oracle.0, &self.oracle.1) {
                o.fail(e);
            }
        }
    }
}

/// Pins the calling thread, and the threads it spawns from now on, to
/// `cpus` (a bit mask). Returns false where the host refuses.
fn pin(cpus: u64) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: pid 0 names the calling thread, and `mask` points to an
    // initialised 8-byte CPU set that outlives the call; the kernel only
    // reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &cpus) == 0 }
}

/// Waits until `due`: busy when the generator has a core to itself (a
/// sleeping generator lets its core halt, and on a virtual machine waking
/// a halted core costs tens of microseconds that would land on the
/// schedule), by sleeping otherwise.
fn wait_until(due: Instant, spin: bool) {
    while let Some(left) = due.checked_duration_since(Instant::now()) {
        if spin {
            std::hint::spin_loop();
        } else {
            std::thread::sleep(left);
        }
    }
}

/// Keeps the calling thread's core from halting until `stop` is set,
/// at the lowest scheduling class, so any other thread on the core runs
/// first and wakes without a halted-core exit.
fn keep_awake(stop: &AtomicBool) {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: pid 0 names the calling thread; `param` points to an
    // initialised `struct sched_param` (one int) that outlives the call.
    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
    if !idle {
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// Bisection for the highest rung of the fixed ladder whose phase meets
/// the limit. A rung that misses is run once more before it counts as
/// missed, so one host stall does not send the search down.
struct Ladder {
    /// Highest rung known to pass (-1: none yet) and lowest known to miss.
    lo: i64,
    hi: i64,
    /// The rung under test missed once already.
    missed_once: bool,
    probes: usize,
}

impl Ladder {
    fn new() -> Self {
        Self {
            lo: -1,
            hi: LADDER_RUNGS as i64,
            missed_once: false,
            probes: 0,
        }
    }

    fn rung(i: i64) -> f64 {
        LADDER_BASE * LADDER_STEP.powi(i as i32)
    }

    fn done(&self) -> bool {
        self.hi - self.lo <= 1
    }

    /// Runs one phase at the rung under test and narrows the bracket.
    fn step(&mut self, svc: &Service, seconds: f64, o: &mut Outcome) {
        let m = (self.lo + self.hi) / 2;
        let tag = format!("service.ladder.{}", self.probes);
        self.probes += 1;
        let ph = svc.phase(Self::rung(m), seconds, &tag, true);
        ph.account(o, false);
        if ph.meets_slo() {
            self.lo = m;
            self.missed_once = false;
        } else if self.missed_once {
            self.hi = m;
            self.missed_once = false;
        } else {
            self.missed_once = true;
        }
    }

    /// The highest passing rate, once the search is done.
    fn result(&self) -> Option<f64> {
        (self.lo >= 0).then(|| Self::rung(self.lo))
    }
}

/// The service part of a run. Untraced, it alternates segments at the
/// middle rate with ladder phases, so host drift hits both alike; each
/// segment's percentiles are its own and the metrics are their medians,
/// so one host stall moves one segment only. Traced, it runs one phase
/// at each fixed rate and splits the middle one.
pub struct ServicePart {
    svc: Service,
    ladder: Ladder,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Traced phases at the middle, low and high rates, in that order.
    traced: Vec<Phase>,
    /// Profile counters across the traced middle phase: canned requests,
    /// fallback blocks and profile misses.
    profile: [u64; 3],
}

/// Shares of the part's budget: the middle-rate segments and ladder
/// phases untraced; the middle, low and high phases traced (the rest
/// pays for the standalone per-layer measurements).
const MID_SHARE: f64 = 0.3;
const LADDER_SHARE: f64 = 0.7;
const TRACED_SHARES: [f64; 3] = [0.4, 0.25, 0.25];

fn profile_counts() -> [u64; 3] {
    let p = profile_counters();
    [p.canned_requests, p.fallback_blocks, p.profile_misses]
}

impl Part for ServicePart {
    fn step(&mut self, budget_s: f64, o: &mut Outcome, tr: Option<&mut Tracer>) {
        if tr.is_some() {
            let k = self.traced.len();
            let (rate, tag) = [
                (RATES[1], "service.mid"),
                (RATES[0], "service.low"),
                (RATES[2], "service.high"),
            ][k];
            let p0 = profile_counts();
            let ph = self
                .svc
                .phase(rate, budget_s * TRACED_SHARES[k], tag, false);
            if k == 0 {
                let p1 = profile_counts();
                self.profile = std::array::from_fn(|i| p1[i] - p0[i]);
            }
            self.traced.push(ph);
            return;
        }
        let mids = self.p50.len();
        if mids < MID_SEGMENTS && (mids <= self.ladder.probes || self.ladder.done()) {
            let tag = format!("service.mid.{mids}");
            let segment_s = budget_s * MID_SHARE / MID_SEGMENTS as f64;
            let ph = self.svc.phase(RATES[1], segment_s, &tag, false);
            ph.account(o, mids == 0);
            let lat = ph.rpc_latency_us();
            self.p50.push(quantile(&lat, 0.5));
            self.p99.push(quantile(&lat, 0.99));
        } else {
            let probe_s = budget_s * LADDER_SHARE / PROBES;
            self.ladder.step(&self.svc, probe_s, o);
        }
    }

    fn done(&self, _used_s: f64, _budget_s: f64) -> bool {
        self.traced.len() == TRACED_SHARES.len()
            || (self.p50.len() >= MID_SEGMENTS && self.ladder.done())
    }

    fn finish(&mut self, o: &mut Outcome, tr: Option<&mut Tracer>) {
        let Some(tr) = tr else {
            o.metric("rpc_p50_us", median(&self.p50), "us");
            o.metric("rpc_p99_us", median(&self.p99), "us");
            match self.ladder.result() {
                Some(rps) => o.metric("max_rps_at_slo", rps, "1/s"),
                None => o.fail("max_rps_at_slo: the lowest ladder rung misses the limit".into()),
            }
            return;
        };
        let [mid, low, high] = &self.traced[..] else {
            unreachable!("a traced service part runs three phases")
        };
        mid.account(o, true);
        low.account(o, false);
        high.account(o, false);
        for r in &mid.reqs {
            let end = r.done.unwrap_or(r.admitted);
            let root = tr.record("service.request", r.due, end, 0);
            tr.record("service.admit", r.submitted, r.admitted, root);
        }
        self.svc.layer_metrics(o, mid, [low, high], self.profile);
    }
}

/// Bytes of gzip members a phase keeps for the `gzip -dc` oracle.
const ORACLE_BYTES: usize = 256 << 10;

impl Service {
    fn arrivals(&self, rate: f64, seconds: f64, tag: &str) -> Vec<Arrival> {
        let mut rng = Rng::new(self.seed, tag);
        let mut at = 0.0;
        let mut out = Vec::new();
        loop {
            at += -(1.0 - rng.unit()).ln() / rate;
            if at >= seconds {
                return out;
            }
            let u = rng.unit();
            let tenant = if u < SHARES[0] {
                RPC
            } else if u < SHARES[0] + SHARES[1] {
                LOGS
            } else {
                SCAN
            };
            out.push(Arrival {
                at: Duration::from_secs_f64(at),
                tenant,
                payload: rng.range(0, self.tenants[tenant].payloads.len() - 1),
            });
        }
    }

    /// Whether `out` is a correct encoding of `t`'s payload `p`, checked
    /// through our inflate.
    fn round_trips(&self, k: usize, p: usize, out: &[u8]) -> bool {
        let t = &self.tenants[k];
        let back = if k == RPC {
            software::decompress_with_dict(out, t.format, &self.json_dict)
        } else {
            software::decompress(out, t.format)
        };
        back.as_deref() == Ok(t.payloads[p].as_slice())
    }

    /// Runs one open-loop phase at `rate` for `seconds` on a fresh service.
    /// Collectors verify each output as it completes, so a phase holds no
    /// outputs beyond the oracle sample.
    fn phase(&self, rate: f64, seconds: f64, tag: &str, may_abort: bool) -> Phase {
        let arrivals = self.arrivals(rate, seconds, tag);
        let backlog_limit = (4.0 * rate * SLO_US * 1e-6) as u64 + 64;
        // The engine thread gets a core of its own, as the accelerator is
        // hardware of its own; the generator and collectors share the
        // other. Without this the scheduler often runs a woken engine
        // thread on the generator's core and the schedule slips.
        let pinned = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2) && pin(0b10);
        let svc = self.nx.service(config());
        if pinned {
            pin(0b01);
        }
        let handles: Vec<_> = self
            .tenants
            .iter()
            .map(|t| svc.open_window_with(TenantSpec::new(t.name, t.class, CREDITS), t.opts))
            .collect();
        let finished = AtomicU64::new(0);
        let mut ph = Phase {
            rate,
            reqs: Vec::with_capacity(arrivals.len()),
            aborted: false,
            counters: Counters::default(),
            errors: Vec::new(),
            oracle: (Vec::new(), Vec::new()),
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            if pinned {
                let stop = &stop;
                s.spawn(move || {
                    if pin(0b10) {
                        keep_awake(stop);
                    }
                });
            }
            let mut txs = Vec::new();
            let mut collectors = Vec::new();
            for k in 0..self.tenants.len() {
                let (tx, rx) = mpsc::channel::<Pending>();
                txs.push(tx);
                let finished = &finished;
                // A tenant's queue is FIFO, so waiting on its tickets in
                // submission order stamps each completion when it happens.
                collectors.push(s.spawn(move || {
                    let mut done = Vec::new();
                    let mut errors = Vec::new();
                    let mut oracle = (Vec::new(), Vec::new());
                    for p in rx {
                        let r = p.ticket.wait();
                        let at = Instant::now();
                        finished.fetch_add(1, Ordering::Relaxed);
                        let a = p.arrival;
                        let ok = match r {
                            Ok(served) => {
                                let bytes = served.compressed.bytes;
                                let ok = self.round_trips(k, a.payload, &bytes);
                                if ok && k != RPC && oracle.0.len() < ORACLE_BYTES {
                                    oracle.0.extend_from_slice(&bytes);
                                    oracle
                                        .1
                                        .extend_from_slice(&self.tenants[k].payloads[a.payload]);
                                }
                                if !ok && errors.len() < 4 {
                                    errors.push(format!(
                                        "{}: output does not round-trip",
                                        self.tenants[k].name
                                    ));
                                }
                                ok
                            }
                            Err(e) => {
                                if errors.len() < 4 {
                                    errors.push(format!("{}: {e}", self.tenants[k].name));
                                }
                                false
                            }
                        };
                        done.push(Req {
                            tenant: k,
                            payload: a.payload,
                            due: p.due,
                            submitted: p.submitted,
                            admitted: p.admitted,
                            done: ok.then_some(at),
                        });
                    }
                    (done, errors, oracle)
                }));
            }
            let t0 = Instant::now() + Duration::from_millis(2);
            let mut sent = 0u64;
            for a in &arrivals {
                let t = &self.tenants[a.tenant];
                let data = t.payloads[a.payload].clone();
                let due = t0 + a.at;
                wait_until(due, pinned);
                let submitted = Instant::now();
                let res = handles[a.tenant].submit_with(data, t.format, t.opts);
                let admitted = Instant::now();
                match res {
                    Ok(ticket) => {
                        let p = Pending {
                            ticket,
                            arrival: *a,
                            due,
                            submitted,
                            admitted,
                        };
                        txs[a.tenant]
                            .send(p)
                            .expect("collector outlives the generator");
                        sent += 1;
                    }
                    Err(e) => {
                        if ph.errors.len() < 4 {
                            ph.errors.push(format!("{} refused: {e}", t.name));
                        }
                        ph.reqs.push(Req {
                            tenant: a.tenant,
                            payload: a.payload,
                            due,
                            submitted,
                            admitted,
                            done: None,
                        });
                    }
                }
                if may_abort && sent - finished.load(Ordering::Relaxed) > backlog_limit {
                    ph.aborted = true;
                    break;
                }
            }
            drop(txs);
            stop.store(true, Ordering::Relaxed);
            for c in collectors {
                let (done, errors, oracle) = c.join().expect("collector thread panicked");
                ph.reqs.extend(done);
                ph.errors.extend(errors);
                ph.oracle.0.extend(oracle.0);
                ph.oracle.1.extend(oracle.1);
            }
        });
        let st = svc.stats();
        let tenants = st.tenants();
        ph.counters = Counters {
            admitted: tenants.iter().map(|t| t.admitted()).sum(),
            completed: tenants.iter().map(|t| t.completed()).sum(),
            batches: st.batches(),
            coalesced: tenants.iter().map(|t| t.coalesced_requests()).sum(),
            rejected_no_credit: tenants.iter().map(|t| t.rejected_no_credit()).sum(),
            rejected_queue_full: tenants.iter().map(|t| t.rejected_queue_full()).sum(),
            depth_p99: tenants
                .iter()
                .filter_map(|t| t.depth().p99())
                .max()
                .unwrap_or(0),
            jain: st.jain_completed(),
        };
        svc.close();
        if pinned {
            pin(u64::MAX);
        }
        ph.reqs.sort_by_key(|r| r.due);
        ph
    }

    fn layer_metrics(
        &self,
        o: &mut Outcome,
        mid: &Phase,
        others: [&Phase; 2],
        [canned, fallbacks, misses]: [u64; 3],
    ) {
        // Engine time per payload, measured standalone through the same
        // facade call the engine thread makes.
        let engine_us: Vec<Vec<f64>> = self
            .tenants
            .iter()
            .map(|t| {
                t.payloads
                    .iter()
                    .map(|p| {
                        let s = Instant::now();
                        let r = self.nx.compress_with(p, t.format, t.opts);
                        let us = s.elapsed().as_secs_f64() * 1e6;
                        o.op(r.is_ok(), || {
                            format!("{} standalone compress failed", t.name)
                        });
                        us
                    })
                    .collect()
            })
            .collect();
        let admit: Vec<f64> = mid
            .reqs
            .iter()
            .map(|r| (r.admitted - r.submitted).as_secs_f64() * 1e6)
            .collect();
        let queue_wait: Vec<f64> = mid
            .reqs
            .iter()
            .filter_map(|r| {
                let lat = (r.done? - r.due).as_secs_f64() * 1e6;
                Some(
                    lat - (r.admitted - r.submitted).as_secs_f64() * 1e6
                        - engine_us[r.tenant][r.payload],
                )
            })
            .collect();
        let late: Vec<f64> = mid
            .reqs
            .iter()
            .map(|r| (r.submitted - r.due).as_secs_f64() * 1e6)
            .collect();

        // Small-payload tokenizer cost, and the dictionary reset alone.
        let mut tok = Tokenizer::new();
        let mut small = Vec::new();
        for (k, level) in [(RPC, self.rpc_level), (LOGS, 1)] {
            for p in &self.tenants[k].payloads {
                let s = Instant::now();
                std::hint::black_box(tok.tokenize(std::hint::black_box(p), 0, level).len());
                small.push(s.elapsed().as_secs_f64() * 1e6);
            }
        }
        let mut m = Hash4Matcher::new();
        let reset: Vec<f64> = (0..512)
            .map(|_| {
                let s = Instant::now();
                m.reset();
                std::hint::black_box(&m);
                s.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let json2k = CorpusKind::Json.generate(
            Rng::new(self.seed, "service.json2k").payload_seed(),
            2 << 10,
        );
        let tok2k: Vec<f64> = (0..512)
            .map(|_| {
                let s = Instant::now();
                std::hint::black_box(
                    tok.tokenize(std::hint::black_box(&json2k), 0, self.rpc_level)
                        .len(),
                );
                s.elapsed().as_secs_f64() * 1e6
            })
            .collect();

        // Adler-32 and zlib framing per rpc payload.
        let (mut adler_s, mut frame_s) = (Vec::new(), Vec::new());
        for p in &self.tenants[RPC].payloads {
            let raw = nx_deflate::deflate_canned(p, Engine::Auto, self.profile(), true);
            let s = Instant::now();
            let a = adler32(std::hint::black_box(p));
            adler_s.push(s.elapsed().as_secs_f64());
            let s = Instant::now();
            std::hint::black_box(zlib::wrap_deflate_with_dict(&raw, a, self.json_dict_id));
            frame_s.push(s.elapsed().as_secs_f64());
        }

        let c = &mid.counters;
        o.metric("lz77.small_tokenize_us", median(&small), "us");
        o.metric("lz77.reset_us", median(&reset), "us");
        o.metric("adler32.s", median(&adler_s), "s");
        o.metric("zlib.frame_s", median(&frame_s), "s");
        o.metric("profile.canned", canned as f64, "count");
        o.metric("profile.fallbacks", fallbacks as f64, "count");
        o.metric("profile.misses", misses as f64, "count");
        o.metric("service.admit_us.p50", quantile(&admit, 0.5), "us");
        o.metric("service.admit_us.p99", quantile(&admit, 0.99), "us");
        for (t, us) in self.tenants.iter().zip(&engine_us) {
            o.metric(format!("service.engine_us.{}", t.name), median(us), "us");
        }
        o.metric(
            "service.queue_wait_us.p50",
            quantile(&queue_wait, 0.5),
            "us",
        );
        o.metric(
            "service.queue_wait_us.p99",
            quantile(&queue_wait, 0.99),
            "us",
        );
        o.metric(
            "service.batch_size",
            c.admitted as f64 / c.batches.max(1) as f64,
            "count",
        );
        o.metric(
            "service.coalesced_share",
            c.coalesced as f64 / c.completed.max(1) as f64,
            "share",
        );
        o.metric(
            "service.rejected_no_credit",
            c.rejected_no_credit as f64,
            "count",
        );
        o.metric(
            "service.rejected_queue_full",
            c.rejected_queue_full as f64,
            "count",
        );
        o.metric("service.depth_p99", c.depth_p99 as f64, "count");
        o.metric("service.jain", c.jain, "index");
        o.metric(
            "service.rpc_p99_us.mid",
            quantile(&mid.rpc_latency_us(), 0.99),
            "us",
        );
        o.metric(
            "service.rpc_p99_us.low",
            quantile(&others[0].rpc_latency_us(), 0.99),
            "us",
        );
        o.metric(
            "service.rpc_p99_us.high",
            quantile(&others[1].rpc_latency_us(), 0.99),
            "us",
        );
        o.metric("generator.late_p99_us", quantile(&late, 0.99), "us");
        o.metric(
            "reanchor.reset_share_2k",
            median(&reset) / median(&tok2k),
            "share",
        );
    }

    fn profile(&self) -> &nx_deflate::Profile {
        self.nx
            .profile_registry()
            .by_name("json")
            .expect("the default registry ships a json profile")
            .1
    }
}
