//! The traced run: per-layer metrics, each timed around calls into the
//! layer's public functions from this file, plus the span ledger that
//! sets the layers' self time against the end-to-end batch time.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use homeo_analysis::{JointSymbolicTable, SymbolicTable};
use homeo_cluster::worker::{Outbox, SiteWorker};
use homeo_cluster::{
    ClientApi, CounterMeta, FrameAssembler, Message, ProgramSet, TcpClient, TcpCluster, CLIENT,
};
use homeo_lang::{parse_transaction, Database};
use homeo_protocol::{negotiate_allowances_cached, NegotiationCache, WorkloadHints};
use homeo_runtime::{OpOutcome, SiteOp};
use homeo_sim::{DetRng, Timer};

use crate::ledger::{self_time_by_layer, Tracer};
use crate::load::{closed_loop, committed, median, open_loop, percentile, Kept};
use crate::workload::{check, config, stream_rng, Fixture, OpGen, Stream, Tally, Workload, SITES};
use crate::{Metric, Report};

/// Batches replayed through the inline pipeline, at most.
const REPLAY_BATCHES: usize = 4_000;
/// Share of `--seconds` the inline replay may take.
const REPLAY_SHARE: f64 = 0.1;
/// Unloaded TCP round trips measured, at most.
const RTT_BATCHES: usize = 2_000;
/// Open-loop batches offered for the open-loop and lateness p99s.
const OPEN_SAMPLES: usize = 1_100;
/// Repetitions of each single-call measurement.
const REPS: usize = 9;

/// Runs `f` `reps` times inside spans named `name` and returns the
/// median duration in nanoseconds.
fn timed<R>(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(tracer.span(name, None, rep as u64, &mut f));
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// Sums one reactor counter over every site's metrics dump.
fn reactor_counter(api: &dyn ClientApi, name: &str) -> f64 {
    api.metrics_text()
        .iter()
        .flat_map(|text| text.lines())
        .filter_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .parse::<f64>()
                .ok()
        })
        .sum()
}

/// Two `SiteWorker`s behind a router that runs on the calling thread:
/// every frame, client and peer, is encoded, cut at seeded points,
/// reassembled and decoded, the way the reactor receives it.
struct Inline {
    workers: Vec<SiteWorker>,
    cuts: DetRng,
    scratch: Vec<u8>,
    frames: u64,
}

/// What replaying one batch through [`Inline`] did.
struct Replayed {
    outcomes: Vec<OpOutcome>,
    /// Site-to-site frames the batch caused.
    peer_frames: u64,
    submit_bytes: usize,
}

impl Inline {
    fn new(w: &Workload, fixture: &Fixture, seed: u64) -> Self {
        let cfg = config();
        let hints = WorkloadHints::uniform(SITES);
        let mut workers: Vec<SiteWorker> = w
            .engines(fixture)
            .into_iter()
            .enumerate()
            .map(|(site, engine)| {
                SiteWorker::new(
                    site,
                    SITES,
                    cfg.mode,
                    hints.clone(),
                    cfg.timer,
                    Arc::new(engine),
                )
            })
            .collect();
        let mut cache = NegotiationCache::new();
        for c in &fixture.counters {
            let (allowances, _) = negotiate_allowances_cached(
                cfg.mode,
                &hints,
                SITES,
                c.initial,
                c.lower_bound,
                cfg.timer,
                &mut cache,
                None,
            );
            let meta = CounterMeta {
                obj: c.obj.clone(),
                base: c.initial,
                lower_bound: c.lower_bound,
                members: (0..SITES).collect(),
                allowances,
            };
            for worker in &mut workers {
                worker.handle(
                    CLIENT,
                    Message::Seed { meta: meta.clone() },
                    &mut Outbox::new(),
                );
            }
        }
        if let Some(bundle) = &fixture.bundle {
            for worker in &mut workers {
                assert!(
                    worker.register_program(bundle) > 0,
                    "inline program registration"
                );
            }
        }
        Inline {
            workers,
            cuts: stream_rng(seed, Stream::Layers),
            scratch: Vec::new(),
            frames: 0,
        }
    }

    /// Receives `frame` as the reactor would: in seeded pieces.
    fn receive(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        req: u64,
        frame: &[u8],
        submit: bool,
    ) -> Message {
        let cuts = &mut self.cuts;
        let whole = tracer.span("cluster.msg.reassembly", Some(root), req, || {
            let mut asm = FrameAssembler::new();
            let mut rest = frame;
            while !rest.is_empty() {
                let take = 1 + cuts.index(rest.len());
                asm.push(&rest[..take]);
                rest = &rest[take..];
            }
            asm.next_frame()
        });
        self.frames += 1;
        let whole = whole.expect("well-formed frame").expect("complete frame");
        let name = if submit {
            "cluster.msg.decode_submit"
        } else {
            "cluster.msg.decode"
        };
        tracer
            .span(name, Some(root), req, || Message::decode(&whole))
            .expect("decodable frame")
    }

    fn replay(&mut self, tracer: &mut Tracer, req: u64, site: usize, ops: &[SiteOp]) -> Replayed {
        let root = tracer.open("inline.batch", None, req);
        let scratch = &mut self.scratch;
        let frame = tracer.span("cluster.msg.encode_submit", Some(root), req, || {
            Message::encode_submit_into(ops, scratch)
        });
        let submit_bytes = frame.len();
        let msg = self.receive(tracer, root, req, &frame, true);
        let mut wire: VecDeque<(usize, usize, Message)> = VecDeque::new();
        wire.push_back((CLIENT, site, msg));
        let mut peer_frames = 0;
        while let Some((from, to, msg)) = wire.pop_front() {
            let mut out = Outbox::new();
            let worker = &mut self.workers[to];
            tracer.span("cluster.worker.handle", Some(root), req, || {
                worker.handle(from, msg, &mut out)
            });
            for (dest, msg) in out {
                if dest == CLIENT {
                    continue;
                }
                peer_frames += 1;
                let scratch = &mut self.scratch;
                let frame = tracer.span("cluster.msg.encode", Some(root), req, || {
                    msg.encode_into(scratch)
                });
                let msg = self.receive(tracer, root, req, &frame, false);
                wire.push_back((to, dest, msg));
            }
        }
        let outcomes = self.workers[site].take_completed();
        let scratch = &mut self.scratch;
        let reply = tracer.span("cluster.msg.encode", Some(root), req, || {
            Message::PollReply {
                outcomes: outcomes.clone(),
            }
            .encode_into(scratch)
        });
        self.receive(tracer, root, req, &reply, false);
        tracer.close(root);
        Replayed {
            outcomes,
            peer_frames,
            submit_bytes,
        }
    }
}

/// Sums span durations by name over spans whose request id passes `keep`.
fn span_ns(tracer: &Tracer, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && keep(s.req))
        .map(|s| (s.end - s.start) as f64)
        .sum()
}

/// Replays the kept batches inline and derives the `cluster.msg`,
/// `cluster.worker` and ledger metrics.
fn replay_metrics(
    w: &Workload,
    fixture: &Fixture,
    seed: u64,
    secs: f64,
    kept: &Kept,
    tracer: &mut Tracer,
    m: &mut Vec<Metric>,
) -> Vec<String> {
    let mut inline = Inline::new(w, fixture, seed);
    // Half the budget warms the workers' negotiation caches, as the live
    // sites' caches were warm when the batches ran over TCP.
    let budget = Duration::from_secs_f64(secs * REPLAY_SHARE / 2.0);
    let warm_until = Instant::now() + budget;
    let mut untimed = Tracer::default();
    for (req, (site, ops)) in kept.iter().enumerate() {
        if Instant::now() > warm_until {
            break;
        }
        inline.replay(&mut untimed, req as u64, *site, ops);
    }
    inline.frames = 0;
    let started = Instant::now();
    let mut ops_total = 0u64;
    let mut submit_bytes = 0usize;
    let (mut local_reqs, mut local_ops) = (Vec::new(), 0u64);
    let (mut sync_reqs, mut sync_rounds, mut sync_frames) = (Vec::new(), 0u64, 0u64);
    let (mut txn_reqs, mut txns) = (Vec::new(), 0u64);
    let mut replayed = 0u64;
    for (req, (site, ops)) in kept.iter().enumerate() {
        if started.elapsed() > budget && replayed > 0 {
            break;
        }
        let req = req as u64;
        let r = inline.replay(tracer, req, *site, ops);
        replayed += 1;
        ops_total += ops.len() as u64;
        submit_bytes += r.submit_bytes;
        let synced = r.outcomes.iter().filter(|o| o.synchronized).count() as u64;
        if synced > 0 {
            sync_reqs.push(req);
            sync_rounds += synced;
            sync_frames += r.peer_frames;
        } else {
            local_reqs.push(req);
            local_ops += committed(&r.outcomes);
        }
        let t = ops
            .iter()
            .filter(|op| matches!(op, SiteOp::Transaction { .. }))
            .count() as u64;
        if t > 0 {
            txn_reqs.push(req);
            txns += t;
        }
    }
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let within = |reqs: &[u64]| {
        let set: std::collections::BTreeSet<u64> = reqs.iter().copied().collect();
        move |r: u64| set.contains(&r)
    };
    let replayed_req = |r: u64| r < replayed;
    let metric = |name, value, unit| Metric { name, value, unit };
    m.push(metric(
        "cluster.msg.encode_ns_per_op",
        per(
            span_ns(tracer, "cluster.msg.encode_submit", replayed_req),
            ops_total,
        ),
        "ns",
    ));
    m.push(metric(
        "cluster.msg.decode_ns_per_op",
        per(
            span_ns(tracer, "cluster.msg.decode_submit", replayed_req),
            ops_total,
        ),
        "ns",
    ));
    m.push(metric(
        "cluster.msg.reassembly_ns_per_frame",
        per(
            span_ns(tracer, "cluster.msg.reassembly", replayed_req),
            inline.frames,
        ),
        "ns",
    ));
    m.push(metric(
        "cluster.msg.bytes_per_op",
        per(submit_bytes as f64, ops_total),
        "B",
    ));
    m.push(metric(
        "cluster.worker.local_ns_per_op",
        per(
            span_ns(tracer, "cluster.worker.handle", within(&local_reqs)),
            local_ops,
        ),
        "ns",
    ));
    m.push(metric(
        "cluster.worker.sync_frames_per_round",
        per(sync_frames as f64, sync_rounds),
        "count",
    ));
    m.push(metric(
        "cluster.worker.sync_us_per_round",
        per(
            span_ns(tracer, "inline.batch", within(&sync_reqs)),
            sync_rounds,
        ) / 1e3,
        "us",
    ));
    m.push(metric(
        "cluster.worker.general_us_per_txn",
        per(span_ns(tracer, "inline.batch", within(&txn_reqs)), txns) / 1e3,
        "us",
    ));
    // The ledger: the layers' self time over the replayed batches against
    // the end-to-end time of the same batches over TCP. The router's own
    // time (the `inline` root) and everything the replay does not cover —
    // the reactor, syscalls, loopback and thread wake-ups — is unattributed.
    let by_layer = self_time_by_layer(tracer.spans(), "inline.batch");
    let layered: u64 = by_layer
        .iter()
        .filter(|(layer, _)| layer.as_str() != "inline")
        .map(|(_, ns)| ns)
        .sum();
    let e2e = span_ns(tracer, "e2e.batch", replayed_req);
    m.push(metric(
        "ledger.unattributed_share",
        1.0 - layered as f64 / e2e.max(1.0),
        "ratio",
    ));
    let mut notes = vec![format!(
        "ledger replayed_batches {replayed} e2e_ns_per_batch {}",
        per(e2e, replayed)
    )];
    for (layer, ns) in by_layer {
        notes.push(format!(
            "ledger self_ns_per_batch {layer} {}",
            per(ns as f64, replayed)
        ));
    }
    notes
}

/// Unloaded TCP round trips over a connection of the benchmark's own.
fn batch_rtt_us(
    cluster: &TcpCluster,
    w: &Workload,
    seed: u64,
    secs: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> f64 {
    let mut clients: Vec<TcpClient> = cluster
        .addrs()
        .iter()
        .map(|addr| TcpClient::connect(*addr).expect("connect to a local site"))
        .collect();
    let mut gen = OpGen::new(w, seed, Stream::Layers);
    let mut ops = Vec::new();
    let mut rtt = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(secs * REPLAY_SHARE);
    while rtt.len() < RTT_BATCHES && Instant::now() < deadline {
        let site = gen.next_batch(&mut ops);
        let client = &mut clients[site];
        let t0 = Instant::now();
        let outcomes = tracer.span("cluster.tcp.batch_rtt", None, rtt.len() as u64, || {
            client.submit_batch(&ops).expect("submit over TCP");
            client.poll().expect("poll over TCP")
        });
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        tally.record(&ops, &outcomes);
    }
    median(&rtt)
}

/// Group commit, WAL growth and snapshot cost on an engine holding the
/// workload's objects, over the workload's write sets.
fn store_metrics(
    w: &Workload,
    fixture: &Fixture,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Vec<Metric>,
) {
    let engine = w.engines(fixture).swap_remove(0);
    for c in &fixture.counters {
        engine
            .write_logged(c.obj.as_str(), c.initial)
            .expect("population write");
    }
    if let Some(bundle) = &fixture.bundle {
        for (obj, value) in &bundle.initial {
            engine
                .write_logged(obj.as_str(), *value)
                .expect("population write");
        }
    }
    let mut gen = OpGen::new(w, seed, Stream::Layers);
    let mut ops = Vec::new();
    let mut write_sets: Vec<Vec<(String, i64)>> = Vec::new();
    for _ in 0..2_000 {
        gen.next_batch(&mut ops);
        let writes: Vec<(String, i64)> = ops
            .iter()
            .filter_map(|op| match op {
                SiteOp::Order { obj, amount, .. } => Some((obj.to_string(), -amount)),
                SiteOp::Increment { obj, amount } => Some((obj.to_string(), *amount)),
                SiteOp::Transaction { index } => {
                    Some((fixture.program_objs[*index].to_string(), -1))
                }
                SiteOp::ForceSync { .. } => None,
            })
            .map(|(obj, delta)| {
                let value = engine.peek(&obj) + delta;
                (obj, if value == 0 { 1 } else { value })
            })
            .collect();
        if !writes.is_empty() {
            write_sets.push(writes);
        }
    }
    let wal_before = engine.wal_frame().len();
    let mut written = 0u64;
    let mut commit_ns = 0f64;
    for (i, writes) in write_sets.iter().enumerate() {
        let borrowed: Vec<(&str, i64)> = writes.iter().map(|(o, v)| (o.as_str(), *v)).collect();
        let t0 = Instant::now();
        tracer
            .span("store.group_commit", None, i as u64, || {
                engine.write_logged_batch(&borrowed)
            })
            .expect("uncontended group commit");
        commit_ns += t0.elapsed().as_nanos() as f64;
        written += borrowed.len() as u64;
    }
    let wal_growth = engine.wal_frame().len() - wal_before;
    let written = written.max(1) as f64;
    m.push(Metric {
        name: "store.group_commit_ns_per_op",
        value: commit_ns / written,
        unit: "ns",
    });
    m.push(Metric {
        name: "store.wal_bytes_per_op",
        value: wal_growth as f64 / written,
        unit: "B",
    });
    let snapshot_ns = timed(tracer, "store.snapshot", 4 * REPS, || engine.snapshot());
    m.push(Metric {
        name: "store.snapshot_us",
        value: snapshot_ns / 1e3,
        unit: "us",
    });
}

/// Cold and warm counter negotiation on the workload's counter shapes
/// (zero when it registers no counters). Returns each shape's cold time.
fn negotiation_metrics(fixture: &Fixture, tracer: &mut Tracer, m: &mut Vec<Metric>) -> Vec<String> {
    let cfg = config();
    let hints = WorkloadHints::uniform(SITES);
    let shapes: std::collections::BTreeSet<(i64, i64)> = fixture
        .counters
        .iter()
        .map(|c| (c.initial, c.lower_bound))
        .collect();
    let (mut cold, mut warm, mut notes) = (Vec::new(), Vec::new(), Vec::new());
    for &(base, lower_bound) in &shapes {
        let negotiate = |cache: &mut NegotiationCache, base: i64, previous: Option<&[i64]>| {
            negotiate_allowances_cached(
                cfg.mode,
                &hints,
                SITES,
                base,
                lower_bound,
                Timer::Wall,
                cache,
                previous,
            )
            .0
        };
        cold.push(timed(tracer, "protocol.negotiation.cold", REPS, || {
            negotiate(&mut NegotiationCache::new(), base, None)
        }));
        notes.push(format!(
            "negotiation cold_us base={base} lower_bound={lower_bound} {}",
            cold[cold.len() - 1] / 1e3
        ));
        // Warm: the shape's templates are cached and each round starts at
        // a new synchronized base, as after a fold.
        let mut cache = NegotiationCache::new();
        let mut previous = negotiate(&mut cache, base, None);
        let mut step = 0;
        warm.push(timed(tracer, "protocol.negotiation.warm", REPS, || {
            step += 1;
            previous = negotiate(&mut cache, base + step, Some(&previous));
        }));
    }
    let us = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) / 1e3 };
    m.push(Metric {
        name: "protocol.negotiation.cold_us",
        value: us(&cold),
        unit: "us",
    });
    m.push(Metric {
        name: "protocol.negotiation.warm_us",
        value: us(&warm),
        unit: "us",
    });
    notes
}

/// Program registration, negotiation and treaty checks, joint-table
/// analysis, parsing and database construction on the workload's bundle
/// (zero when it registers no programs).
fn program_metrics(w: &Workload, fixture: &Fixture, tracer: &mut Tracer, m: &mut Vec<Metric>) {
    let measured = fixture.bundle.as_ref().map(|bundle| {
        let from_bundle = timed(tracer, "protocol.program.from_bundle", REPS, || {
            ProgramSet::from_bundle(bundle, SITES).expect("valid bundle")
        });
        let mut set = ProgramSet::from_bundle(bundle, SITES).expect("valid bundle");
        let initial = Database::from_pairs(bundle.initial.iter().cloned());
        let negotiate = timed(tracer, "protocol.program.negotiate", REPS, || {
            set.negotiate(&initial, Timer::Wall)
        });
        // The view a site checks its treaty on: its whole state.
        let snapshot = w.engines(fixture).swap_remove(0).snapshot();
        let to_db = || {
            let mut db = Database::from_pairs(snapshot.iter().map(|(k, v)| (k.as_str(), *v)));
            for (obj, value) in &bundle.initial {
                db.set(obj.clone(), *value);
            }
            db
        };
        let view = to_db();
        let holds = timed(tracer, "protocol.program.local_holds", 50 * REPS, || {
            set.local_holds(0, &view)
        });
        let from_pairs = timed(tracer, "lang.db_from_pairs", REPS, to_db);
        let parse = timed(tracer, "lang.parse", REPS, || {
            bundle
                .sources
                .iter()
                .map(|src| parse_transaction(src).expect("valid source"))
                .collect::<Vec<_>>()
        });
        let tables: Vec<SymbolicTable> = set
            .transactions()
            .iter()
            .map(SymbolicTable::analyze)
            .collect();
        let joint = timed(tracer, "analysis.joint_build", REPS, || {
            JointSymbolicTable::build(&tables)
        });
        [
            negotiate / 1e3,
            holds,
            from_bundle / 1e6,
            joint / 1e6,
            JointSymbolicTable::build(&tables).len() as f64,
            parse / 1e3 / bundle.sources.len() as f64,
            from_pairs / 1e3,
        ]
    });
    let names = [
        ("protocol.program.negotiate_us", "us"),
        ("protocol.program.local_holds_ns", "ns"),
        ("protocol.program.from_bundle_ms", "ms"),
        ("analysis.joint_build_ms", "ms"),
        ("analysis.joint_rows", "count"),
        ("lang.parse_us_per_program", "us"),
        ("lang.db_from_pairs_us", "us"),
    ];
    for (i, (name, unit)) in names.into_iter().enumerate() {
        let value = measured.map_or(0.0, |values| values[i]);
        m.push(Metric { name, value, unit });
    }
}

/// The open loop is rejected as generator-bound when its generator's p99
/// lateness exceeds this share of the measured p99 latency.
const MAX_LATE_SHARE_OF_P99: f64 = 0.25;

/// Fails the run when the generator, not the cluster, set the open loop's
/// latency: its p99 lateness exceeds a share of the open-loop p99.
fn check_generator(open_p99: Option<f64>, late_p99: Option<f64>) -> Result<(), String> {
    match (open_p99, late_p99) {
        (Some(p99), Some(late)) if late > MAX_LATE_SHARE_OF_P99 * p99 => Err(format!(
            "generator-bound open loop: late p99 {late:.4} ms against p99 {p99:.4} ms"
        )),
        _ => Ok(()),
    }
}

/// The traced run: every per-layer metric.
pub fn traced(w: &Workload, seed: u64, secs: f64) -> Result<Report, String> {
    let fixture = w.fixture();
    let mut cluster = w.start(&fixture);
    let mut tally = Tally::new(&fixture);
    let mut tracer = Tracer::default();
    let mut m = Vec::new();
    let plan = crate::Plan::new(w, secs);
    closed_loop(
        &mut cluster,
        &mut OpGen::new(w, seed, Stream::Warmup),
        &mut tally,
        plan.warmup,
        None,
        0,
    );

    let rtt = batch_rtt_us(&cluster, w, seed, secs, &mut tally, &mut tracer);

    let api: &mut dyn ClientApi = &mut cluster;
    let stats_before = api.stats();
    let committed_before = tally.committed;
    let mut gen = OpGen::new(w, seed, Stream::Closed);
    let frames_before = reactor_counter(api, "homeo_reactor_frames_in_total");
    let bytes_before = reactor_counter(api, "homeo_reactor_bytes_in_total");
    let (untraced, _) = closed_loop(api, &mut gen, &mut tally, plan.closed, None, 0);
    let frames = reactor_counter(api, "homeo_reactor_frames_in_total") - frames_before;
    let bytes = reactor_counter(api, "homeo_reactor_bytes_in_total") - bytes_before;
    let (traced, kept) = closed_loop(
        api,
        &mut gen,
        &mut tally,
        plan.closed,
        Some(&mut tracer),
        REPLAY_BATCHES,
    );
    // Long enough for a p99 of the open loop.
    let open_secs = OPEN_SAMPLES as f64 * w.batch as f64 / w.open_rate;
    let open = open_loop(
        api,
        &mut OpGen::new(w, seed, Stream::Open),
        &mut stream_rng(seed, Stream::Schedule),
        &mut tally,
        w.open_rate,
        w.batch,
        open_secs,
    );
    let stats = api.stats();
    let committed_ops = (tally.committed - committed_before).max(1) as f64;
    let negotiations = stats.negotiations - stats_before.negotiations;
    let syncs = stats.synchronizations - stats_before.synchronizations;
    let solver_us = stats.solver_micros_total - stats_before.solver_micros_total;
    let checks = check(api, &fixture, &tally);
    drop(cluster);

    let metric = |name, value, unit| Metric { name, value, unit };
    let untraced_ops = untraced.committed.max(1) as f64;
    m.push(metric("cluster.tcp.batch_rtt_us_p50", rtt, "us"));
    m.push(metric(
        "cluster.tcp.frames_per_op",
        frames / untraced_ops,
        "count",
    ));
    m.push(metric(
        "cluster.tcp.bytes_per_op",
        bytes / untraced_ops,
        "B",
    ));
    let mut notes = replay_metrics(w, &fixture, seed, secs, &kept, &mut tracer, &mut m);
    store_metrics(w, &fixture, seed, &mut tracer, &mut m);
    notes.extend(negotiation_metrics(&fixture, &mut tracer, &mut m));
    m.push(metric(
        "protocol.negotiations_per_kop",
        negotiations as f64 * 1e3 / committed_ops,
        "count",
    ));
    m.push(metric(
        "protocol.solver_us_per_sync",
        if syncs == 0 {
            0.0
        } else {
            solver_us as f64 / syncs as f64
        },
        "us",
    ));
    program_metrics(w, &fixture, &mut tracer, &mut m);
    let open_p99 = percentile(&open.latency_ms, 0.99);
    let late_p99 = percentile(&open.late_ms, 0.99);
    check_generator(open_p99, late_p99)?;
    let too_few = "too few open-loop samples for a p99";
    m.push(metric(
        "loadgen.open_p99_ms",
        open_p99.ok_or(too_few)?,
        "ms",
    ));
    m.push(metric(
        "loadgen.late_p99_ms",
        late_p99.ok_or(too_few)?,
        "ms",
    ));
    m.push(metric(
        "ledger.trace_overhead",
        traced.throughput() / untraced.throughput(),
        "ratio",
    ));

    let dump = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name(format!("trace-{}-{seed}.tsv", w.name));
    tracer
        .dump(&dump)
        .map_err(|e| format!("writing {}: {e}", dump.display()))?;
    let mut report = Report::from_tally(m, checks, &tally);
    report.notes = notes;
    report.notes.push(format!(
        "spans {} written to {}",
        tracer.spans().len(),
        dump.display()
    ));
    Ok(report)
}
