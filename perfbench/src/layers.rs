//! Per-layer numbers for the traced run.
//!
//! Nothing inside the program is instrumented. Instead the benchmark
//! replays each layer's public functions from here — at the geometry,
//! fill and queue depth the traced run observed — and times them:
//! the setup steps `Simulator::new` runs internally (design, PGT, catalog,
//! layout), `Admission::check` on a controller filled to the observed
//! active count, `Disk::service_round_with` and `sweep_order_into` at the
//! observed per-disk depth, layout lookups, the erasure codec at the
//! workload's shard size, and arrival generation. Counts come straight
//! from the round reports and final metrics.

use std::hint::black_box;
use std::time::Instant;

use cms_admission::{Admission, AdmitRequest, DeclusteredAdmission, PrefetchParityDiskAdmission};
use cms_bibd::{best_design, Design, DesignRequest, Pgt};
use cms_cluster::Placement;
use cms_core::units::{mbps, mib, transfer_time};
use cms_core::{ClipId, DiskId, DiskParams, NodeId, RequestId, Scheme};
use cms_disk::{sweep_order_into, BlockRequest, DiskArray, ServiceScratch, TimingModel};
use cms_layout::{clustered, declustered, BlockLocation, MaterializedLayout, StreamAddr};
use cms_model::{capacity, ModelInput};
use cms_parity::{codec_for, Block};
use cms_sim::SimConfig;
use cms_workload::{Catalog, ClipChoice, PoissonArrivals};

use crate::measure::{metric, Metric, Trial};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Config, ADMISSION_SCAN};

/// What the setup replay built, reused by the layer replays.
pub struct Built {
    /// The parity group table (declustered family).
    pub pgt: Option<Pgt>,
    /// The node catalog.
    pub catalog: Catalog,
    /// The node layout.
    pub layout: MaterializedLayout,
}

/// Runs `f`, returning its value and wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Clips one node stores.
fn node_clips(cfg: &Config) -> u64 {
    match cfg {
        Config::Node(c, _) => c.catalog_clips,
        Config::Cluster(c) => {
            Placement::new(c.nodes, c.replication, c.catalog_clips, c.seed).node_clips(NodeId(0))
        }
    }
}

/// The block design `Simulator::new` asks for at the node geometry.
fn design_for(node: &SimConfig) -> Option<Design> {
    best_design(DesignRequest {
        v: node.d,
        k: node.p,
        allow_fallback: true,
        seed: node.seed,
    })
}

/// Replays the steps `Simulator::new` runs for the (node) configuration,
/// recording each as a child span of `parent`: `bibd.best_design` and
/// `bibd.pgt_new` (declustered only), `workload.catalog`, `layout.build`.
///
/// # Errors
///
/// Describes a step that failed.
pub fn replay_setup(cfg: &Config, spans: &mut Spans, parent: usize) -> Result<Built, String> {
    let node = cfg.node();
    let clips = node_clips(cfg);
    let jitter = u64::from(node.d);
    let mut step = |name: &'static str, start: Instant, secs: f64| {
        spans.push_closed(name, Some(parent), start, secs);
    };
    let catalog = |streams: u32, align: u64| {
        Catalog::mixed(
            clips,
            node.clip_len,
            node.clip_len_spread,
            streams,
            align,
            jitter,
            node.seed,
        )
        .map_err(|e| e.to_string())
    };
    if node.scheme == Scheme::DeclusteredParity {
        let start = Instant::now();
        let (design, s) = timed(|| design_for(node));
        step("bibd.best_design", start, s);
        let design = design.ok_or("no block design for the workload geometry")?;
        let start = Instant::now();
        let (pgt, s) = timed(|| Pgt::new(&design));
        step("bibd.pgt_new", start, s);
        let start = Instant::now();
        let (catalog, s) = timed(|| catalog(1, 1));
        step("workload.catalog", start, s);
        let catalog = catalog?;
        let start = Instant::now();
        let (layout, s) = timed(|| declustered::build(&pgt, catalog.max_stream_len()));
        step("layout.build", start, s);
        Ok(Built {
            pgt: Some(pgt),
            catalog,
            layout: layout.map_err(|e| e.to_string())?,
        })
    } else {
        let span = u64::from(node.p - node.m).max(1);
        let start = Instant::now();
        let (catalog, s) = timed(|| catalog(1, span));
        step("workload.catalog", start, s);
        let catalog = catalog?;
        let start = Instant::now();
        let (layout, s) = timed(|| {
            clustered::build_with_redundancy(
                node.scheme,
                node.d,
                node.p,
                node.m,
                catalog.max_stream_len(),
            )
        });
        step("layout.build", start, s);
        Ok(Built {
            pgt: None,
            catalog,
            layout: layout.map_err(|e| e.to_string())?,
        })
    }
}

/// Nanoseconds per call of `f`: the median of 5 batches of `calls`
/// calls, after one untimed batch.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        start.elapsed().as_secs_f64() * 1e9 / calls as f64
    };
    batch();
    median(&(0..5).map(|_| batch()).collect::<Vec<_>>())
}

/// Cheap deterministic generator for replay inputs.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n.max(1)
    }
}

/// An admission probe for `clip`, built the way the engine builds its
/// pending entries.
fn admit_request(built: &Built, clip: u64, id: u64) -> AdmitRequest {
    let p = built.catalog.placement(ClipId(clip));
    let start = StreamAddr::new(p.stream, p.start_index);
    AdmitRequest {
        id: RequestId(id),
        stream: p.stream,
        start_index: p.start_index,
        start_disk: built.layout.locate(start).disk,
        row: built.layout.row_of(start).unwrap_or(0),
        len: p.len,
    }
}

/// The node's admission controller (the two schemes the workloads use).
fn controller(node: &SimConfig, built: &Built) -> Result<Box<dyn Admission>, String> {
    let c: Box<dyn Admission> = match (&built.pgt, node.scheme) {
        (Some(pgt), Scheme::DeclusteredParity) => Box::new(
            DeclusteredAdmission::new(node.d, pgt.rows(), node.q, node.f.max(1), pgt.lambda_max())
                .map_err(|e| e.to_string())?,
        ),
        _ => Box::new(
            PrefetchParityDiskAdmission::with_redundancy(node.d, node.p, node.m, node.q)
                .map_err(|e| e.to_string())?,
        ),
    };
    Ok(c)
}

/// `Admission::check` at the observed fill, plus the controller's
/// nominal capacity.
fn admission_check_ns(node: &SimConfig, built: &Built, fill: u64) -> Result<(f64, u64), String> {
    let mut ctl = controller(node, built)?;
    let clips = built.catalog.len() as u64;
    let mut rng = Lcg(node.seed ^ 0xAD);
    let mut id = 0;
    let mut misses = 0;
    while (ctl.active() as u64) < fill && misses < 10 * fill.max(64) {
        id += 1;
        if ctl
            .try_admit(admit_request(built, rng.below(clips), id))
            .is_err()
        {
            misses += 1;
        }
    }
    let probes: Vec<AdmitRequest> = (0..256)
        .map(|i| admit_request(built, rng.below(clips), 1 << 40 | i))
        .collect();
    let ns = ns_per_call(20_000, |i| {
        black_box(ctl.check(&probes[(i & 255) as usize]));
    });
    Ok((ns, ctl.nominal_capacity()))
}

/// `Disk::service_round_with` and `sweep_order_into` at queue depth
/// `depth`, per block.
fn disk_ns(node: &SimConfig, depth: usize) -> Result<(f64, f64), String> {
    let mut array = DiskArray::new(
        1,
        DiskParams::sigmod96(),
        TimingModel::worst_case(),
        node.block_bytes,
    )
    .map_err(|e| e.to_string())?;
    let per_disk = array.blocks_per_disk();
    let deadline = transfer_time(node.block_bytes, mbps(1.5));
    let mut rng = Lcg(node.seed ^ 0xD15C);
    let rounds: Vec<Vec<BlockRequest>> = (0..64)
        .map(|_| {
            (0..depth)
                .map(|_| BlockRequest::new(DiskId(0), rng.below(per_disk), ClipId(0)))
                .collect()
        })
        .collect();
    let (ctx, disks) = array.service_parts();
    let disk = &mut disks[0];
    let mut scratch = ServiceScratch::with_budget(depth);
    let calls = (200_000 / depth as u64).max(16);
    let service = ns_per_call(calls, |i| {
        black_box(
            disk.service_round_with(&ctx, &rounds[(i & 63) as usize], deadline, &mut scratch)
                .ok(),
        );
    }) / depth as f64;
    let cylinders: Vec<Vec<u32>> = (0..64)
        .map(|_| (0..depth).map(|_| rng.below(2000) as u32).collect())
        .collect();
    let mut order = Vec::with_capacity(depth);
    let sweep = ns_per_call(calls, |i| {
        sweep_order_into(&cylinders[(i & 63) as usize], (i % 2000) as u32, &mut order);
        black_box(&order);
    }) / depth as f64;
    Ok((service, sweep))
}

/// `locate` and `reconstruction_reads_into` on random data blocks.
fn layout_ns(layout: &MaterializedLayout, seed: u64) -> (f64, f64) {
    let mut rng = Lcg(seed ^ 0x1A70);
    let streams = u64::from(layout.num_streams().max(1));
    let addrs: Vec<StreamAddr> = (0..1024)
        .map(|_| {
            let s = rng.below(streams) as u32;
            StreamAddr::new(s, rng.below(layout.stream_len(s)))
        })
        .collect();
    let locate = ns_per_call(100_000, |i| {
        black_box(layout.locate(addrs[(i & 1023) as usize]));
    });
    let mut out: Vec<BlockLocation> = Vec::with_capacity(64);
    let recon = ns_per_call(50_000, |i| {
        layout.reconstruction_reads_into(addrs[(i & 1023) as usize], &mut out);
        black_box(&out);
    });
    (locate, recon)
}

/// Encode and single-erasure reconstruct with `codec_for(k, m)` at
/// `len`-byte shards: (reconstruct ns, encode ns, encode data bytes/s).
fn parity_ns(k: usize, m: usize, len: usize) -> Result<(f64, f64, f64), String> {
    let mut codec = codec_for(k, m).map_err(|e| e.to_string())?;
    let data: Vec<Block> = (0..k).map(|i| Block::synthetic(7, i as u64, len)).collect();
    let refs: Vec<&Block> = data.iter().collect();
    let mut parity: Vec<Block> = (0..m).map(|_| Block::zeroed(len)).collect();
    codec
        .encode_into(&refs, &mut parity)
        .map_err(|e| e.to_string())?;
    let encode = ns_per_call(20_000, |_| {
        black_box(codec.encode_into(&refs, &mut parity).is_ok());
    });
    let present: Vec<(usize, &Block)> = (1..k)
        .map(|i| (i, &data[i]))
        .chain((0..m).map(|j| (k + j, &parity[j])))
        .collect();
    let mut out = Block::zeroed(len);
    let reconstruct = ns_per_call(20_000, |_| {
        black_box(codec.reconstruct_into(&present, 0, &mut out).is_ok());
    });
    if out.bytes() != data[0].bytes() {
        return Err("codec replay reconstructed the wrong bytes".into());
    }
    Ok((reconstruct, encode, (k * len) as f64 / (encode * 1e-9)))
}

/// Poisson arrivals plus clip choice, per arrival.
fn arrival_ns(rate: f64, clips: u64, seed: u64) -> f64 {
    let mut arrivals = PoissonArrivals::new(rate.max(1.0), seed ^ 0xA11);
    let mut choice = ClipChoice::uniform(clips.max(1), seed ^ 0xC11);
    let mut batch = || {
        let start = Instant::now();
        let mut n = 0u64;
        for _ in 0..2_000 {
            for _ in 0..arrivals.next_round() {
                black_box(choice.next_clip());
                n += 1;
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
    };
    batch();
    median(&(0..5).map(|_| batch()).collect::<Vec<_>>())
}

/// Median duration of the spans named `name`, or of `fallback` run once.
fn span_or(spans: &Spans, name: &str, fallback: impl FnOnce() -> f64) -> f64 {
    let d = spans.durations(name);
    if d.is_empty() {
        fallback()
    } else {
        median(&d)
    }
}

/// The per-layer metrics, in [`crate::report::PER_LAYER`] order.
/// `plain` are the traced run's untraced trials, `traced` its traced
/// ones; `built` is a setup replay of the workload's configuration.
///
/// # Errors
///
/// Describes a replay that could not be built.
pub fn per_layer(
    cfg: &Config,
    built: &Built,
    plain: &[Trial],
    traced: &[Trial],
    spans: &Spans,
) -> Result<Vec<Metric>, String> {
    let node = cfg.node();
    let nodes = match cfg {
        Config::Node(..) => 1.0,
        Config::Cluster(c) => f64::from(c.nodes),
    };
    let t = &traced[0];
    let win = &t.window;
    let rounds = win.rounds.max(1) as f64;
    let pr = |v: u64| v as f64 / rounds;
    let o = &t.outcome;

    // Host time per round of the whole deployment and per node engine.
    let cluster_round_ns = median(
        &plain
            .iter()
            .map(|t| t.timed_cpu_s / rounds * 1e9)
            .collect::<Vec<_>>(),
    );
    let round_ns = cluster_round_ns / nodes;
    let new_s = median(&plain.iter().map(|t| t.setup.new_s).collect::<Vec<_>>());

    let fill = (pr(win.sum.active) / nodes).round() as u64;
    let (check_ns, nominal) = admission_check_ns(node, built, fill)?;
    let blocks_pr = pr(win.sum.blocks) / nodes;
    let depth = ((blocks_pr / f64::from(node.d)).round() as usize).max(1);
    let (service_ns, sweep_ns) = disk_ns(node, depth)?;
    let (locate_ns, recon_reads_ns) = layout_ns(&built.layout, node.seed);
    let k = (node.p - node.m).max(1) as usize;
    let (reconstruct_ns, encode_ns, parity_bps) =
        parity_ns(k, node.m as usize, node.content_bytes)?;
    let rate = match cfg {
        Config::Node(c, _) => c.arrival_rate,
        Config::Cluster(c) => c.arrival_rate,
    };
    let arrive_ns = arrival_ns(rate, node_clips(cfg), node.seed);

    let design_s = span_or(spans, "bibd.best_design", || timed(|| design_for(node)).1);
    let pgt_s = span_or(spans, "bibd.pgt_new", || {
        design_for(node).map_or(f64::NAN, |d| timed(|| black_box(Pgt::new(&d))).1)
    });
    let solve_s = median(
        &plain
            .iter()
            .map(|t| t.setup.model_solve_s)
            .collect::<Vec<_>>(),
    );
    let (solve_s, model_capacity) = match cfg {
        Config::Node(_, Some(point)) => (solve_s, u64::from(point.total_clips)),
        _ => {
            // Literal geometries solve no model in setup: time the
            // closed-form model at the node's array size instead, and
            // compare against the controller's nominal capacity.
            let mut input = ModelInput::sigmod96(mib(256));
            input.d = node.d;
            (
                timed(|| black_box(capacity(node.scheme, &input, node.p).ok())).1,
                nominal,
            )
        }
    };

    // Layer estimate of one node round: arrivals generated, admission
    // probes (admissions plus the scan over the backlog), blocks located
    // and serviced, reconstructions located and decoded.
    let probes =
        pr(win.sum.admissions) / nodes + (pr(win.sum.pending) / nodes).min(ADMISSION_SCAN as f64);
    let recon_pr = pr(win.reconstructions) / nodes;
    let layer_ns = pr(win.sum.arrivals) / nodes * arrive_ns
        + probes * check_ns
        + blocks_pr * (service_ns + locate_ns)
        + recon_pr * (recon_reads_ns + reconstruct_ns);

    let srps = |ts: &[Trial]| {
        median(
            &ts.iter()
                .map(Trial::raw_stream_rounds_per_s)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = 1.0 - srps(traced) / srps(plain);
    let total_rounds = o.rounds.max(1) as f64;

    Ok(vec![
        metric("sim.round_ns", round_ns, "ns"),
        metric("sim.new_s", new_s, "s"),
        metric("sim.self_ns_per_round", round_ns - layer_ns, "ns"),
        metric("sim.arrivals_per_round", pr(win.sum.arrivals), "1/round"),
        metric(
            "sim.admissions_per_round",
            pr(win.sum.admissions),
            "1/round",
        ),
        metric("sim.blocks_per_round", pr(win.sum.blocks), "1/round"),
        metric(
            "sim.recovery_reads_per_round",
            pr(win.sum.recovery_reads),
            "1/round",
        ),
        metric(
            "sim.rebuild_reads_per_round",
            pr(win.sum.rebuild_reads),
            "1/round",
        ),
        metric("sim.active_streams", pr(win.sum.active), "count"),
        metric("sim.pending_end", o.pending as f64, "count"),
        metric("admission.check_ns", check_ns, "ns"),
        metric(
            "admission.admit_ratio",
            win.sum.admissions as f64 / win.sum.arrivals.max(1) as f64,
            "ratio",
        ),
        metric("disk.service_ns_per_block", service_ns, "ns"),
        metric("disk.sweep_ns_per_block", sweep_ns, "ns"),
        metric("disk.util_mean", o.util_mean, "ratio"),
        metric("disk.peak_queue", o.peak_queue as f64, "count"),
        metric("layout.locate_ns", locate_ns, "ns"),
        metric("layout.recon_reads_ns", recon_reads_ns, "ns"),
        metric(
            "layout.build_s",
            span_or(spans, "layout.build", || f64::NAN),
            "s",
        ),
        metric("parity.reconstruct_ns", reconstruct_ns, "ns"),
        metric("parity.encode_ns", encode_ns, "ns"),
        metric("parity.bytes_per_s", parity_bps, "B/s"),
        metric(
            "parity.reconstructions_per_round",
            pr(win.reconstructions),
            "1/round",
        ),
        metric("parity.mismatches", o.parity_mismatches as f64, "count"),
        metric("bibd.design_s", design_s, "s"),
        metric("bibd.pgt_s", pgt_s, "s"),
        metric("model.solve_s", solve_s, "s"),
        metric(
            "model.capacity_ratio",
            pr(win.sum.active) / nodes / model_capacity.max(1) as f64,
            "ratio",
        ),
        metric("workload.arrival_ns", arrive_ns, "ns"),
        metric(
            "workload.catalog_s",
            span_or(spans, "workload.catalog", || f64::NAN),
            "s",
        ),
        metric("cluster.round_ns", cluster_round_ns, "ns"),
        metric("cluster.routed_per_round", pr(win.sum.routed), "1/round"),
        metric("cluster.shed_per_round", pr(win.sum.shed), "1/round"),
        metric(
            "cluster.migrations_per_round",
            pr(win.sum.migrations),
            "1/round",
        ),
        metric(
            "cluster.rebuild_blocks_per_round",
            pr(win.sum.rebuild_blocks),
            "1/round",
        ),
        metric(
            "trace.events_per_round",
            t.trace_events as f64 / total_rounds,
            "1/round",
        ),
        metric("trace.overhead_share", overhead, "ratio"),
    ])
}
