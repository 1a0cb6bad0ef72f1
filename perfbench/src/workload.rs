//! The three workloads: their fixed shapes and offered rates, the seeded
//! input generator, cluster set-up, and the output checks.

use std::collections::BTreeMap;

use homeo_cluster::{ClientApi, ClusterConfig, ProgramBundle, TcpCluster};
use homeo_lang::{ids::ObjId, programs, Database};
use homeo_protocol::{Loc, OptimizerConfig, ReplicatedMode};
use homeo_runtime::{OpOutcome, SiteOp};
use homeo_sim::DetRng;
use homeo_store::Engine;

/// Sites in every cluster the benchmark starts.
pub const SITES: usize = 2;

/// The optimizer every workload negotiates with (the `homeostasisd`
/// deployment setting).
pub const OPTIMIZER: OptimizerConfig = OptimizerConfig {
    lookahead: 10,
    futures: 2,
    seed: 21,
};

/// The cluster configuration `homeostasisd` deploys: wall-clock timer and
/// default tuning.
pub fn config() -> ClusterConfig {
    ClusterConfig::new(ReplicatedMode::Homeostasis {
        optimizer: Some(OPTIMIZER),
    })
}

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Counter orders that never violate a treaty.
    Fastpath,
    /// The TPC-C mix as counter operations.
    TpccMix,
    /// Registered L++ programs over a large site database.
    GeneralLpp,
}

/// The fixed constants of one workload. Rates and batch sizes are set
/// here, never derived from a run's own throughput, so a faster commit
/// path is tested at the same offered load as a slower one.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which generator and set-up.
    pub kind: Kind,
    /// Operations per `submit_batch`.
    pub batch: usize,
    /// Offered open-loop load in operations per second: about a quarter of
    /// the closed-loop capacity measured on a 2-core host. On a shared host
    /// whose capacity can halve for minutes, half the capacity saturates
    /// the open loop and its latency grows without bound.
    pub open_rate: f64,
    /// Closed-loop capacity in operations per second on a 2-core host. It
    /// only sizes the fixed number of batches each closed-loop window
    /// submits, so that a run does the same work whatever its speed.
    pub closed_rate: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fastpath",
        kind: Kind::Fastpath,
        batch: 16,
        open_rate: 50_000.0,
        closed_rate: 220_000.0,
    },
    Workload {
        name: "tpcc-mix",
        kind: Kind::TpccMix,
        batch: 1,
        open_rate: 3_500.0,
        closed_rate: 15_000.0,
    },
    Workload {
        name: "general-lpp",
        kind: Kind::GeneralLpp,
        batch: 1,
        open_rate: 50.0,
        closed_rate: 250.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

const FAST_COUNTERS: usize = 256;
const FAST_HOT: usize = 4;
const FAST_HOTNESS: f64 = 0.8;
/// Large enough that no order ever drains a counter: no refill, no
/// treaty violation.
const DEEP_STOCK: i64 = 1_000_000_000;

const TPCC_STOCK: usize = 200;
const TPCC_STOCK_INITIAL: i64 = 100;
const TPCC_REFILL: i64 = 100;
const TPCC_HOT_FRACTION: f64 = 0.01;
const TPCC_HOTNESS: f64 = 0.5;
const TPCC_CUSTOMERS: usize = 200;
const TPCC_BALANCE_FLOOR: i64 = -1_000_000_000;
const TPCC_DISTRICTS: usize = 10;

const GENERAL_PROGRAMS: usize = 8;
/// Unrelated objects pre-populated on each site: the general path copies
/// the whole site state for every transaction, so this sets its cost.
const GENERAL_FILLER: usize = 4096;

/// A counter the workload registers.
#[derive(Debug, Clone)]
pub struct Counter {
    /// The object.
    pub obj: ObjId,
    /// Registered initial value.
    pub initial: i64,
    /// The treaty's lower bound.
    pub lower_bound: i64,
}

/// The objects and programs a workload sets up on the cluster.
pub struct Fixture {
    /// Registered counters.
    pub counters: Vec<Counter>,
    /// Registered program bundle (`general-lpp` only).
    pub bundle: Option<ProgramBundle>,
    /// The object each registered program writes, by program index.
    pub program_objs: Vec<ObjId>,
    /// Unrelated objects written into every site's engine before start.
    pub filler: Vec<(ObjId, i64)>,
}

fn objs(prefix: &str, n: usize) -> Vec<ObjId> {
    (0..n)
        .map(|i| ObjId::new(format!("{prefix}[{i}]")))
        .collect()
}

impl Workload {
    /// The workload's objects, programs and population.
    pub fn fixture(&self) -> Fixture {
        let counters = |pool: Vec<ObjId>, initial: i64, lower_bound: i64| {
            pool.into_iter().map(move |obj| Counter {
                obj,
                initial,
                lower_bound,
            })
        };
        match self.kind {
            Kind::Fastpath => Fixture {
                counters: counters(objs("stock", FAST_COUNTERS), DEEP_STOCK, 0).collect(),
                bundle: None,
                program_objs: Vec::new(),
                filler: Vec::new(),
            },
            Kind::TpccMix => Fixture {
                counters: counters(objs("stock", TPCC_STOCK), TPCC_STOCK_INITIAL, 0)
                    .chain(counters(
                        objs("balance", TPCC_CUSTOMERS),
                        0,
                        TPCC_BALANCE_FLOOR,
                    ))
                    .chain(counters(objs("district", TPCC_DISTRICTS), 0, 0))
                    .collect(),
                bundle: None,
                program_objs: Vec::new(),
                filler: Vec::new(),
            },
            Kind::GeneralLpp => {
                let stock = objs("gstock", GENERAL_PROGRAMS);
                let txns: Vec<_> = stock
                    .iter()
                    .map(|o| programs::order_for_object(o.clone(), DEEP_STOCK))
                    .collect();
                let loc = Loc::from_pairs(
                    stock
                        .iter()
                        .enumerate()
                        .map(|(i, o)| (o.clone(), i % SITES)),
                );
                let initial = Database::from_pairs(stock.iter().map(|o| (o.clone(), DEEP_STOCK)));
                let bundle =
                    ProgramBundle::from_transactions(&txns, &loc, &initial, Some(OPTIMIZER));
                Fixture {
                    counters: Vec::new(),
                    bundle: Some(bundle),
                    program_objs: stock,
                    filler: objs("filler", GENERAL_FILLER)
                        .into_iter()
                        .enumerate()
                        .map(|(i, o)| (o, 1 + i as i64))
                        .collect(),
                }
            }
        }
    }

    /// The engines a cluster starts from: every site holds the filler.
    pub fn engines(&self, fixture: &Fixture) -> Vec<Engine> {
        (0..SITES)
            .map(|_| {
                let engine = Engine::new();
                for (obj, value) in &fixture.filler {
                    engine
                        .write_logged(obj.as_str(), *value)
                        .expect("population write on a fresh engine");
                }
                engine
            })
            .collect()
    }

    /// Starts the two-site loopback cluster and registers every counter
    /// and program: everything a run does before its first submit.
    pub fn start(&self, fixture: &Fixture) -> TcpCluster {
        let mut cluster = TcpCluster::from_engines(self.engines(fixture), config());
        for c in &fixture.counters {
            cluster.register_counter(c.obj.clone(), c.initial, c.lower_bound);
        }
        if let Some(bundle) = &fixture.bundle {
            let registered = cluster.register_program(bundle);
            assert_eq!(
                registered as usize,
                fixture.program_objs.len(),
                "program bundle registration"
            );
        }
        cluster
    }
}

/// The seeded input generator: the same seed and stream give the same
/// sequence of `(site, batch)` pairs, independent of timing.
pub struct OpGen {
    kind: Kind,
    batch: usize,
    rng: DetRng,
    stock: Vec<ObjId>,
    balances: Vec<ObjId>,
    districts: Vec<ObjId>,
    /// Program indices homed at each site (program `i` writes an object
    /// located at site `i % SITES`).
    homed: Vec<Vec<usize>>,
}

/// Independent input streams drawn from one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Warm-up batches.
    Warmup = 1,
    /// Open-loop batches.
    Open = 2,
    /// Open-loop arrival schedule.
    Schedule = 3,
    /// Closed-loop batches.
    Closed = 4,
    /// Batches of the traced run's layer measurements.
    Layers = 5,
}

/// An RNG for one stream of one seed.
pub fn stream_rng(seed: u64, stream: Stream) -> DetRng {
    DetRng::seed_from(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl OpGen {
    /// A generator for `workload` over one stream of `seed`.
    pub fn new(workload: &Workload, seed: u64, stream: Stream) -> Self {
        let (stock, balances, districts) = match workload.kind {
            Kind::Fastpath => (objs("stock", FAST_COUNTERS), Vec::new(), Vec::new()),
            Kind::TpccMix => (
                objs("stock", TPCC_STOCK),
                objs("balance", TPCC_CUSTOMERS),
                objs("district", TPCC_DISTRICTS),
            ),
            Kind::GeneralLpp => (Vec::new(), Vec::new(), Vec::new()),
        };
        OpGen {
            kind: workload.kind,
            batch: workload.batch,
            rng: stream_rng(seed, stream),
            stock,
            balances,
            districts,
            homed: (0..SITES)
                .map(|site| (site..GENERAL_PROGRAMS).step_by(SITES).collect())
                .collect(),
        }
    }

    /// Fills `ops` with the next batch and returns the site it goes to.
    pub fn next_batch(&mut self, ops: &mut Vec<SiteOp>) -> usize {
        ops.clear();
        let site = self.rng.index(SITES);
        for _ in 0..self.batch {
            let op = self.next_op(site);
            ops.push(op);
        }
        site
    }

    fn next_op(&mut self, site: usize) -> SiteOp {
        let rng = &mut self.rng;
        match self.kind {
            Kind::Fastpath => {
                let hot = FAST_HOT as f64 / FAST_COUNTERS as f64;
                let i = rng.hot_cold_item(FAST_COUNTERS, hot, FAST_HOTNESS);
                SiteOp::Order {
                    obj: self.stock[i].clone(),
                    amount: 1,
                    refill_to: None,
                }
            }
            Kind::TpccMix => {
                let roll = rng.unit();
                if roll < 0.45 {
                    let i = rng.hot_cold_item(TPCC_STOCK, TPCC_HOT_FRACTION, TPCC_HOTNESS);
                    SiteOp::Order {
                        obj: self.stock[i].clone(),
                        amount: rng.int_inclusive(1, 5),
                        refill_to: Some(TPCC_REFILL),
                    }
                } else if roll < 0.90 {
                    SiteOp::Increment {
                        obj: self.balances[rng.index(TPCC_CUSTOMERS)].clone(),
                        amount: rng.int_inclusive(1, 5000),
                    }
                } else {
                    SiteOp::ForceSync {
                        obj: self.districts[rng.index(TPCC_DISTRICTS)].clone(),
                    }
                }
            }
            Kind::GeneralLpp => {
                let local = &self.homed[site];
                SiteOp::Transaction {
                    index: local[rng.index(local.len())],
                }
            }
        }
    }
}

/// Counts every submitted operation and the state the committed ones
/// must leave behind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that committed.
    pub committed: u64,
    /// Committed operations that synchronized.
    pub synchronized: u64,
    /// Operations not committed, rejected as unsupported, or missing an
    /// outcome.
    pub failed: u64,
    /// Expected final value of every counter that cannot refill.
    expected: BTreeMap<ObjId, i64>,
    program_objs: Vec<ObjId>,
}

impl Tally {
    /// A tally expecting the fixture's initial state.
    pub fn new(fixture: &Fixture) -> Self {
        let mut expected = BTreeMap::new();
        for c in &fixture.counters {
            expected.insert(c.obj.clone(), c.initial);
        }
        if let Some(bundle) = &fixture.bundle {
            for (obj, value) in &bundle.initial {
                expected.insert(obj.clone(), *value);
            }
        }
        Tally {
            expected,
            program_objs: fixture.program_objs.clone(),
            ..Tally::default()
        }
    }

    /// Adds another tally's operation counts to this one.
    pub fn add_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.synchronized += other.synchronized;
        self.failed += other.failed;
    }

    /// Records one batch and its outcomes.
    pub fn record(&mut self, ops: &[SiteOp], outcomes: &[OpOutcome]) {
        self.attempted += ops.len() as u64;
        self.failed += ops.len().saturating_sub(outcomes.len()) as u64;
        for (op, out) in ops.iter().zip(outcomes) {
            if !out.committed || out.unsupported {
                self.failed += 1;
                continue;
            }
            self.committed += 1;
            self.synchronized += u64::from(out.synchronized);
            match op {
                SiteOp::Order {
                    obj,
                    amount,
                    refill_to: None,
                } => *self.expected.get_mut(obj).expect("registered") -= amount,
                // A counter that refills does not conserve.
                SiteOp::Order { obj, .. } => {
                    self.expected.remove(obj);
                }
                // A pin writes nothing.
                SiteOp::ForceSync { .. } => {}
                SiteOp::Increment { obj, amount } => {
                    *self.expected.get_mut(obj).expect("registered") += amount.abs()
                }
                SiteOp::Transaction { index } => {
                    let obj = &self.program_objs[*index];
                    *self.expected.get_mut(obj).expect("registered") -= 1;
                }
            }
        }
    }
}

/// One output check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The first discrepancy, when it did not.
    pub detail: String,
}

/// Synchronizes every site, then checks the cluster's final state:
/// replica agreement, exact conservation of every counter that cannot
/// refill, lower bounds, and (for programs) that the treaty-holding path
/// ran.
pub fn check(api: &mut dyn ClientApi, fixture: &Fixture, tally: &Tally) -> Vec<Check> {
    api.sync_all();
    let snapshots: Vec<BTreeMap<String, i64>> =
        (0..api.sites()).map(|s| api.engine(s).snapshot()).collect();
    let mut checks = Vec::new();
    let disagree = snapshots[1..]
        .iter()
        .enumerate()
        .find(|(_, snap)| **snap != snapshots[0])
        .map(|(i, _)| format!("site {} differs from site 0", i + 1));
    checks.push(Check {
        name: "replicas_agree",
        ok: disagree.is_none(),
        detail: disagree.unwrap_or_default(),
    });
    let value = |obj: &ObjId| snapshots[0].get(obj.as_str()).copied().unwrap_or(0);
    let unconserved = tally
        .expected
        .iter()
        .find(|(obj, want)| value(obj) != **want)
        .map(|(obj, want)| format!("{obj}: expected {want}, found {}", value(obj)));
    checks.push(Check {
        name: "conservation",
        ok: unconserved.is_none(),
        detail: unconserved.unwrap_or_default(),
    });
    let below = fixture
        .counters
        .iter()
        .find(|c| value(&c.obj) < c.lower_bound)
        .map(|c| format!("{} = {} < {}", c.obj, value(&c.obj), c.lower_bound));
    checks.push(Check {
        name: "lower_bounds",
        ok: below.is_none(),
        detail: below.unwrap_or_default(),
    });
    if fixture.bundle.is_some() {
        let local = api.stats().local_commits;
        checks.push(Check {
            name: "local_commits",
            ok: local > 0,
            detail: if local > 0 {
                String::new()
            } else {
                "no program committed without synchronizing".to_string()
            },
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_cluster::Message;

    fn input_bytes(workload: &Workload, seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        let mut ops = Vec::new();
        for stream in [Stream::Open, Stream::Closed] {
            let mut gen = OpGen::new(workload, seed, stream);
            for _ in 0..64 {
                let site = gen.next_batch(&mut ops);
                bytes.push(site as u8);
                bytes.extend(Message::encode_submit_into(&ops, &mut scratch));
            }
        }
        let mut schedule = stream_rng(seed, Stream::Schedule);
        for _ in 0..64 {
            bytes.extend(schedule.unit().to_le_bytes());
        }
        bytes
    }

    #[test]
    fn one_seed_regenerates_identical_inputs_and_another_changes_them() {
        for workload in WORKLOADS {
            let a = input_bytes(&workload, 7);
            assert_eq!(a, input_bytes(&workload, 7), "{}", workload.name);
            assert_ne!(a, input_bytes(&workload, 8), "{}", workload.name);
        }
    }

    #[test]
    fn tally_tracks_conserving_counters() {
        let workload = by_name("fastpath").expect("fastpath");
        let fixture = workload.fixture();
        let mut tally = Tally::new(&fixture);
        let obj = fixture.counters[0].obj.clone();
        let ops = [SiteOp::Order {
            obj: obj.clone(),
            amount: 3,
            refill_to: None,
        }];
        tally.record(&ops, &[OpOutcome::local_commit()]);
        tally.record(&ops, &[OpOutcome::unsupported()]);
        assert_eq!(tally.expected[&obj], DEEP_STOCK - 3);
        assert_eq!((tally.attempted, tally.committed, tally.failed), (2, 1, 1));
    }
}
