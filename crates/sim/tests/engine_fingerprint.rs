//! Engine fingerprint goldens: byte-level digests of whole runs through
//! the fault, recovery and session paths that no committed trace golden
//! reaches. Each case hashes its JSONL event stream (FNV-1a over
//! `TraceEvent::to_jsonl`, taken through a hashing `TraceSink`) and the
//! `Debug` rendering of its final `Metrics`; scripted cases also fold in
//! every API return value. Any change to event order, event content or
//! accounting on these paths fails here.
//!
//! The cases:
//! - RS(4, 2) clustered double failure (`@30 fail 1`, `@40 fail 2`) with
//!   rebuild and verification, on PrefetchParityDisks and StreamingRaid:
//!   two lost data blocks in one group window, and stranded rebuild
//!   reads whose block stays decodable;
//! - transient outages that strand queued recovery reads, declustered
//!   (the stream is lost) and RS(4, 2) (the block still decodes);
//! - a declustered second failure while the first disk is rebuilding;
//! - a scripted submit / submit_at / pause / resume / fail / repair /
//!   evacuate / export sequence on PrefetchFlat and DeclusteredParity.

use cms_core::{ClipId, DiskId, Scheme};
use cms_sim::{FaultSchedule, SimConfig, Simulator, TraceEvent, TraceSink, TraceSpec};
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hashes every event's JSONL line; the state is shared so the test can
/// read it after the simulator has taken the sink.
struct HashSink(Arc<Mutex<(u64, u64)>>);

impl TraceSink for HashSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut state = self.0.lock().expect("hash sink lock");
        state.0 = fnv(state.0, event.to_jsonl().as_bytes());
        state.1 += 1;
    }
}

/// One run's digests: trace stream, event count, final metrics, and the
/// scripted API results (`FNV_OFFSET` when nothing was scripted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    trace: u64,
    events: u64,
    metrics: u64,
    script: u64,
}

/// A traced simulator plus the handle onto its hashing sink.
struct Run {
    sim: Simulator,
    state: Arc<Mutex<(u64, u64)>>,
    script: u64,
}

impl Run {
    fn new(cfg: SimConfig) -> Self {
        let mut sim = Simulator::new(cfg).expect("fingerprint config must construct");
        let state = Arc::new(Mutex::new((FNV_OFFSET, 0)));
        sim.set_trace_sink(Box::new(HashSink(Arc::clone(&state))));
        Run {
            sim,
            state,
            script: FNV_OFFSET,
        }
    }

    fn steps(&mut self, n: u64) {
        for _ in 0..n {
            self.sim.step();
        }
    }

    /// Folds a scripted call's `Debug` rendering into the script digest.
    fn note<T: std::fmt::Debug>(&mut self, value: T) {
        self.script = fnv(self.script, format!("{value:?}\n").as_bytes());
    }

    fn finish(self) -> Fingerprint {
        let (trace, events) = *self.state.lock().expect("hash sink lock");
        Fingerprint {
            trace,
            events,
            metrics: fnv(FNV_OFFSET, format!("{:?}", self.sim.metrics()).as_bytes()),
            script: self.script,
        }
    }
}

/// The small (8, 4) geometry the engine unit tests use.
fn small_cfg(scheme: Scheme) -> SimConfig {
    SimConfig {
        scheme,
        d: 8,
        p: 4,
        m: 1,
        q: 8,
        f: 2,
        block_bytes: 1 << 20,
        catalog_clips: 40,
        clip_len: 20,
        clip_len_spread: 0,
        arrival_rate: 3.0,
        zipf_theta: 0.0,
        rounds: 160,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: true,
        content_bytes: 256,
        seed: 7,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: false,
        threads: 1,
        trace: TraceSpec::off(),
    }
}

fn faults(spec: &str) -> FaultSchedule {
    FaultSchedule::parse(spec).expect("fingerprint fault spec must parse")
}

/// Runs `cfg` for its configured rounds.
fn run(cfg: SimConfig) -> Fingerprint {
    let rounds = cfg.rounds;
    let mut r = Run::new(cfg);
    r.steps(rounds);
    r.finish()
}

/// RS(4, 2) on a (12, 6) clustered array: disks 1 and 2 are both data
/// disks of cluster 0, so after round 40 every cluster-0 group window has
/// two lost blocks, and disk 2's failure strands rebuild reads for disk 1
/// whose blocks remain decodable from the other survivors.
fn rs_double_failure(scheme: Scheme) -> Fingerprint {
    let mut cfg = small_cfg(scheme).with_faults(faults("@30 fail 1\n@40 fail 2\n"));
    cfg.d = 12;
    cfg.p = 6;
    cfg.m = 2;
    cfg.auto_rebuild = true;
    run(cfg)
}

#[test]
fn rs_double_failure_prefetch_parity_disks() {
    assert_eq!(
        rs_double_failure(Scheme::PrefetchParityDisks),
        Fingerprint {
            trace: 0xae7d21dd142c3e7c,
            events: 18308,
            metrics: 0xc0bd160bcd8f14bb,
            script: FNV_OFFSET,
        }
    );
}

#[test]
fn rs_double_failure_streaming_raid() {
    assert_eq!(
        rs_double_failure(Scheme::StreamingRaid),
        Fingerprint {
            trace: 0x7d3f07b299edfff3,
            events: 12926,
            metrics: 0xebf7e20f033b6edc,
            script: FNV_OFFSET,
        }
    );
}

/// A saturated declustered array with a slowed disk 3 loses disk 1, so
/// recovery reads for disk 1's blocks back up on disk 3; disk 3's
/// transient outage then strands them and, under single parity, loses
/// their streams.
#[test]
fn declustered_transient_strands_recovery_reads() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults(
        "@20 slow 3 factor=4 rounds=30\n@30 fail 1\n@36 transient 3 rounds=6\n",
    ));
    cfg.arrival_rate = 20.0;
    assert_eq!(
        run(cfg),
        Fingerprint {
            trace: 0xba7f04864c285699,
            events: 17489,
            metrics: 0xdb15bb5fb2ce6e32,
            script: FNV_OFFSET,
        }
    );
}

/// RS(4, 2) with a backlog on disk 2 when disk 1 fails and disk 2 then
/// blips: the stranded recovery reads leave enough expected shards, so
/// each block still decodes (or keeps waiting) instead of being lost.
#[test]
fn rs_transient_strands_decodable_recovery_reads() {
    let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_faults(faults(
        "@20 slow 2 factor=4 rounds=30\n@30 fail 1\n@36 transient 2 rounds=6\n",
    ));
    cfg.d = 12;
    cfg.p = 6;
    cfg.m = 2;
    cfg.arrival_rate = 20.0;
    assert_eq!(
        run(cfg),
        Fingerprint {
            trace: 0x577d268e61436142,
            events: 19836,
            metrics: 0x94e03049b71ffa8d,
            script: FNV_OFFSET,
        }
    );
}

/// A second declustered failure while the first disk is still
/// rebuilding: disk 3 (which shares groups with disk 1) is slowed so the
/// rebuild reads on it back up, then fails. It queues for the rebuild
/// slot, and its stranded rebuild reads leave counted holes.
#[test]
fn declustered_fail_during_rebuild() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults(
        "@30 fail 1\n@34 slow 3 factor=4 rounds=10\n@40 fail 3\n",
    ));
    cfg.arrival_rate = 1.0;
    cfg.auto_rebuild = true;
    cfg.rounds = 400;
    assert_eq!(
        run(cfg),
        Fingerprint {
            trace: 0x1be42fd17adeacdd,
            events: 4603,
            metrics: 0x6c7bef19d85d1ec3,
            script: FNV_OFFSET,
        }
    );
}

/// Drives every session and fault entry point in a fixed order and folds
/// each return value into the script digest.
fn scripted(scheme: Scheme) -> Fingerprint {
    let mut cfg = small_cfg(scheme);
    cfg.arrival_rate = 0.5;
    cfg.auto_rebuild = true;
    let mut r = Run::new(cfg);
    for clip in 0..6u64 {
        let id = r.sim.submit(ClipId(clip));
        r.note(id);
    }
    let bad = r.sim.submit(ClipId(999)).map_err(|e| e.to_string());
    r.note(bad);
    for (clip, offset) in [(7u64, 0u64), (8, 5), (9, 13), (10, 40)] {
        let id = r.sim.submit_at(ClipId(clip), offset);
        r.note(id);
    }
    let bad = r.sim.submit_at(ClipId(40), 3).map_err(|e| e.to_string());
    r.note(bad);
    r.steps(8);
    let active = r.sim.export_sessions();
    r.note(&active);
    let playing: Vec<_> = active
        .iter()
        .filter(|s| s.was_active)
        .map(|s| s.request)
        .collect();
    for &id in playing.iter().take(3) {
        let paused = r.sim.pause(id).map_err(|e| e.to_string());
        r.note(paused);
    }
    let twice = playing
        .first()
        .map(|&id| r.sim.pause(id).map_err(|e| e.to_string()));
    r.note(twice);
    r.steps(4);
    let failed = r.sim.fail_disk(DiskId(3)).map_err(|e| e.to_string());
    r.note(failed);
    let second = r.sim.fail_disk(DiskId(5)).map_err(|e| e.to_string());
    r.note(second);
    r.steps(3);
    for &id in playing.iter().take(3) {
        let resumed = r.sim.resume(id).map_err(|e| e.to_string());
        r.note(resumed);
    }
    r.steps(10);
    let progress = r.sim.rebuild_progress();
    r.note(progress);
    let repaired = r.sim.repair_disk(DiskId(3)).map_err(|e| e.to_string());
    r.note(repaired);
    let not_failed = r.sim.repair_disk(DiskId(3)).map_err(|e| e.to_string());
    r.note(not_failed);
    r.steps(6);
    let sessions = r.sim.export_sessions();
    r.note(&sessions);
    let dropped = r.sim.evacuate();
    r.note(dropped);
    r.note((
        r.sim.active_clients(),
        r.sim.pending_requests(),
        r.sim.paused_sessions(),
    ));
    for s in &sessions {
        let id = r.sim.submit_at(s.clip, s.offset);
        r.note(id);
    }
    r.steps(60);
    let sessions = r.sim.export_sessions();
    r.note(&sessions);
    r.finish()
}

#[test]
fn scripted_sessions_prefetch_flat() {
    assert_eq!(
        scripted(Scheme::PrefetchFlat),
        Fingerprint {
            trace: 0xdc15a1acb7ee681d,
            events: 716,
            metrics: 0xa4d9cea912dc5b1a,
            script: 0xccc74335164c4a50,
        }
    );
}

#[test]
fn scripted_sessions_declustered() {
    assert_eq!(
        scripted(Scheme::DeclusteredParity),
        Fingerprint {
            trace: 0x1fefc630cfb5c0c5,
            events: 818,
            metrics: 0x61c7876940e800a2,
            script: 0x5db2f333acdd4818,
        }
    );
}
