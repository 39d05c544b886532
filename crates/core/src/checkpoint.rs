//! Durable, crash-safe checkpoint/resume for the threaded runtime.
//!
//! A checkpoint captures everything a killed training process needs to
//! continue as if it had never stopped: model parameters, the Adam
//! optimizer's moment accumulators and step counter, the trained set
//! (the per-batch history), the scheduler's live EWMA estimates and
//! switch count, the
//! per-role cache-plan fingerprint, the RNG stream position (the
//! `(seed, epoch, batch)` domain tags shared with
//! `sampling::presample_rng` — batch sampling is a pure function of
//! batch identity, so the "RNG position" is exactly the trained set),
//! and the cumulative [`RecoveryReport`].
//!
//! # On-disk format
//!
//! ```text
//! ckpt-<generation>.bin :=
//!     magic  b"GLABCKPT"            (8 bytes)
//!     version u32-le                (currently 1)
//!     section_count u32-le
//!     section*                      (exactly section_count of them)
//! section :=
//!     tag     [u8;4]                (META MODL OPTS SCHD RNGS RCVR HIST)
//!     len     u64-le                (payload bytes)
//!     payload [u8; len]
//!     crc32   u32-le                (CRC-32/IEEE over payload only)
//! ```
//!
//! Writes are atomic and torn-write-safe: the file is fully assembled in
//! memory, written to `ckpt-<gen>.bin.tmp`, fsynced, renamed into place,
//! and the directory is fsynced. The rename is the commit record: the
//! directory is its own index, with no manifest beside it, and a kill at
//! *any* point leaves either a complete `ckpt-<gen>.bin` or a torn `.tmp`
//! that is never a candidate. [`load_latest`] scans the `ckpt-*.bin`
//! names newest-first, rejects any file whose magic/version/structure/
//! CRC/cursor checks fail, counts torn leftovers (stray `.tmp` files,
//! corrupt or truncated generations), and loads the newest generation
//! that validates end to end.

use crate::threaded::RecoveryReport;
use gnnlab_tensor::{AdamState, Matrix, ModelKind};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic for checkpoint files.
pub const MAGIC: &[u8; 8] = b"GLABCKPT";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;
/// Generations retained on disk: older ones are pruned after each
/// successful write.
pub const DEFAULT_KEEP: usize = 3;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// When (and where) the threaded runtime writes checkpoints.
///
/// A default-constructed policy (`dir: None`) disables checkpointing
/// entirely and the runtime behaves exactly as before. With a directory
/// set but no batch cadence, checkpoints land on epoch boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint directory; `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Checkpoint every N trained batches (`None`: every epoch's worth).
    pub every_batches: Option<usize>,
    /// Resume from the latest valid generation in `dir` before training.
    /// An empty or fully-corrupt directory starts fresh.
    pub resume: bool,
    /// Deterministic chaos injection for the kill–resume harness.
    pub chaos: ChaosPlan,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` with the default epoch-boundary cadence.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Whether checkpointing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The batch-count cadence: `every_batches`, or the epoch length.
    pub fn batch_cadence(&self, batches_per_epoch: usize) -> usize {
        self.every_batches.unwrap_or(batches_per_epoch).max(1)
    }
}

/// Seeded chaos injection: simulated process kills and a slow disk, all
/// deterministic so the kill–resume harness can replay them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosPlan {
    /// Simulate a process kill once this many batches have trained: the
    /// run aborts with a `Killed` error, losing all in-memory state. Only
    /// the checkpoint directory survives — exactly like a real `SIGKILL`.
    pub kill_after_batches: Option<usize>,
    /// Simulate a process kill midway through writing this checkpoint
    /// generation: a torn `.tmp` file is left behind and the run aborts.
    pub kill_mid_write: Option<u64>,
    /// Injected slow disk: every checkpoint write sleeps this long first
    /// (drives the `checkpoint_stall` alert in tests).
    pub slow_disk: Option<Duration>,
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// Identity of the run a checkpoint belongs to. Resume refuses to load a
/// checkpoint whose meta does not match the live configuration — silently
/// mixing runs would corrupt training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Base RNG seed for every derived stream.
    pub seed: u64,
    /// Total epochs configured.
    pub epochs: u64,
    /// Minibatch size.
    pub batch_size: u64,
    /// Model hidden dimension.
    pub hidden_dim: u64,
    /// Learning-rate bits (exact f32 identity, not approximate equality).
    pub lr_bits: u32,
    /// Model architecture.
    pub model_kind: ModelKind,
    /// Graph vertex count.
    pub num_vertices: u64,
    /// Graph edge count.
    pub num_edges: u64,
    /// Feature width.
    pub feat_dim: u64,
    /// Label classes.
    pub num_classes: u64,
    /// Batches per epoch.
    pub batches_per_epoch: u64,
    /// Total batches in the run.
    pub total_batches: u64,
    /// Configured Sampler count.
    pub num_samplers: u64,
    /// Configured Trainer count.
    pub num_trainers: u64,
    /// Whether §5.3 dynamic switching was on.
    pub dynamic_switching: bool,
    /// Memory-planned trainer cache rows (cache-plan fingerprint).
    pub trainer_rows: u64,
    /// Memory-planned standby cache rows (cache-plan fingerprint).
    pub standby_rows: u64,
}

/// The scheduler's live state: EWMA cells (bit-exact, `None` = never
/// updated) plus the cumulative switch count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedSnapshot {
    /// EWMA of per-batch sampling seconds.
    pub t_sample: Option<f64>,
    /// EWMA of per-batch training seconds on a dedicated Trainer.
    pub t_train: Option<f64>,
    /// EWMA of per-batch training seconds on a standby Trainer.
    pub t_standby: Option<f64>,
    /// EWMA of cache refresh seconds.
    pub refresh_secs: Option<f64>,
    /// Completed Sampler→Trainer switches.
    pub switches: u64,
}

/// The RNG stream position: with per-batch domain-tagged streams
/// (`presample_rng(seed, epoch, batch)`), a batch's draws are a function
/// of its identity alone. The cursor split into epoch and batch, stored
/// explicitly (rather than derived from the cursor) as an integrity
/// cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngCursor {
    /// Base seed of every derived stream.
    pub seed: u64,
    /// Epoch of the next batch to sample.
    pub next_epoch: u64,
    /// Within-epoch index of the next batch to sample.
    pub next_batch: u64,
}

/// One trained batch's record: the exactly-once history the chaos
/// harness holds to bit-identity across kill–resume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRecord {
    /// Global batch index.
    pub id: u64,
    /// Training loss for this batch.
    pub loss: f32,
    /// Training accuracy for this batch.
    pub acc: f64,
}

/// Everything a checkpoint persists.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Run identity (validated against the live config on resume).
    pub meta: CheckpointMeta,
    /// Master model parameter values, in `params_mut()` order.
    pub params: Vec<Matrix>,
    /// Full Adam state (step counter + both moment accumulators).
    pub opt: AdamState,
    /// Scheduler EWMAs + switch count.
    pub sched: SchedSnapshot,
    /// RNG stream position of the next batch.
    pub rng: RngCursor,
    /// Batches fully trained: the length of `history`.
    pub cursor: u64,
    /// Cumulative fault-recovery accounting.
    pub recovery: RecoveryReport,
    /// Per-batch training history, sorted by id: the trained set. Each id
    /// appears once and is below `meta.total_batches`; after a
    /// multi-consumer run the set may have holes, which a resume trains.
    pub history: Vec<BatchRecord>,
}

/// What [`load_latest`] found.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest generation that validated end to end, if any.
    pub loaded: Option<(u64, CheckpointState)>,
    /// Torn or corrupt artifacts skipped on the way: stray `.tmp` files
    /// plus generations that failed magic/version/structure/CRC checks.
    pub torn_detected: u64,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file failed a structural or checksum validation.
    Corrupt(String),
    /// A chaos kill-point fired midway through the write.
    KilledMidWrite,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::KilledMidWrite => {
                write!(f, "simulated kill during checkpoint write")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(why.into())
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/PNG polynomial) — implemented here so the
// checkpoint format stays dependency-free.
// ---------------------------------------------------------------------------

/// CRC-32/IEEE over `data` (poly 0xEDB88320, init/final 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn opt_f64_bits(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x.to_bits());
            }
            None => {
                self.u8(0);
                self.u64(0);
            }
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &x in m.data() {
            self.f32_bits(x);
        }
    }
    fn matrices(&mut self, ms: &[Matrix]) {
        self.u64(ms.len() as u64);
        for m in ms {
            self.matrix(m);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("section payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(gnnlab_par::invariant!(
            self.take(4)?.try_into(),
            "take(4) yields exactly four bytes"
        )))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(gnnlab_par::invariant!(
            self.take(8)?.try_into(),
            "take(8) yields exactly eight bytes"
        )))
    }
    fn f32_bits(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn opt_f64_bits(&mut self) -> Result<Option<f64>, CheckpointError> {
        let flag = self.u8()?;
        let bits = self.u64()?;
        Ok(if flag == 1 {
            Some(f64::from_bits(bits))
        } else {
            None
        })
    }
    fn usize_checked(&mut self, what: &str, cap: usize) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| corrupt(format!("{what} overflows usize")))?;
        if v > cap {
            return Err(corrupt(format!("{what} {v} exceeds sanity cap {cap}")));
        }
        Ok(v)
    }
    fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.usize_checked("matrix rows", 1 << 28)?;
        let cols = self.usize_checked("matrix cols", 1 << 28)?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= self.buf.len() / 4 + 1)
            .ok_or_else(|| corrupt("matrix larger than its section"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f32_bits()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
    fn matrices(&mut self) -> Result<Vec<Matrix>, CheckpointError> {
        let n = self.usize_checked("matrix count", 1 << 20)?;
        (0..n).map(|_| self.matrix()).collect()
    }
    fn finished(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after section payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Section (de)serialization
// ---------------------------------------------------------------------------

const TAG_META: [u8; 4] = *b"META";
const TAG_MODEL: [u8; 4] = *b"MODL";
const TAG_OPT: [u8; 4] = *b"OPTS";
const TAG_SCHED: [u8; 4] = *b"SCHD";
const TAG_RNG: [u8; 4] = *b"RNGS";
const TAG_RECOVERY: [u8; 4] = *b"RCVR";
const TAG_HISTORY: [u8; 4] = *b"HIST";

fn model_kind_code(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::Gcn => 0,
        ModelKind::GraphSage => 1,
        ModelKind::PinSage => 2,
    }
}

fn model_kind_from_code(code: u8) -> Result<ModelKind, CheckpointError> {
    match code {
        0 => Ok(ModelKind::Gcn),
        1 => Ok(ModelKind::GraphSage),
        2 => Ok(ModelKind::PinSage),
        other => Err(corrupt(format!("unknown model kind code {other}"))),
    }
}

fn encode_meta(m: &CheckpointMeta, cursor: u64, generation: u64) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(m.seed);
    e.u64(m.epochs);
    e.u64(m.batch_size);
    e.u64(m.hidden_dim);
    e.u32(m.lr_bits);
    e.u8(model_kind_code(m.model_kind));
    e.u64(m.num_vertices);
    e.u64(m.num_edges);
    e.u64(m.feat_dim);
    e.u64(m.num_classes);
    e.u64(m.batches_per_epoch);
    e.u64(m.total_batches);
    e.u64(m.num_samplers);
    e.u64(m.num_trainers);
    e.u8(u8::from(m.dynamic_switching));
    e.u64(m.trainer_rows);
    e.u64(m.standby_rows);
    e.u64(cursor);
    e.u64(generation);
    e.0
}

fn decode_meta(buf: &[u8]) -> Result<(CheckpointMeta, u64, u64), CheckpointError> {
    let mut d = Dec::new(buf);
    let meta = CheckpointMeta {
        seed: d.u64()?,
        epochs: d.u64()?,
        batch_size: d.u64()?,
        hidden_dim: d.u64()?,
        lr_bits: d.u32()?,
        model_kind: model_kind_from_code(d.u8()?)?,
        num_vertices: d.u64()?,
        num_edges: d.u64()?,
        feat_dim: d.u64()?,
        num_classes: d.u64()?,
        batches_per_epoch: d.u64()?,
        total_batches: d.u64()?,
        num_samplers: d.u64()?,
        num_trainers: d.u64()?,
        dynamic_switching: d.u8()? == 1,
        trainer_rows: d.u64()?,
        standby_rows: d.u64()?,
    };
    let cursor = d.u64()?;
    let generation = d.u64()?;
    d.finished()?;
    Ok((meta, cursor, generation))
}

fn encode_opt(s: &AdamState) -> Vec<u8> {
    let mut e = Enc::default();
    e.f32_bits(s.lr);
    e.f32_bits(s.beta1);
    e.f32_bits(s.beta2);
    e.f32_bits(s.eps);
    e.u64(s.t as u64);
    e.matrices(&s.m);
    e.matrices(&s.v);
    e.0
}

fn decode_opt(buf: &[u8]) -> Result<AdamState, CheckpointError> {
    let mut d = Dec::new(buf);
    let state = AdamState {
        lr: d.f32_bits()?,
        beta1: d.f32_bits()?,
        beta2: d.f32_bits()?,
        eps: d.f32_bits()?,
        t: i32::try_from(d.u64()? as i64).map_err(|_| corrupt("adam step counter overflow"))?,
        m: d.matrices()?,
        v: d.matrices()?,
    };
    d.finished()?;
    Ok(state)
}

fn encode_sched(s: &SchedSnapshot) -> Vec<u8> {
    let mut e = Enc::default();
    e.opt_f64_bits(s.t_sample);
    e.opt_f64_bits(s.t_train);
    e.opt_f64_bits(s.t_standby);
    e.opt_f64_bits(s.refresh_secs);
    e.u64(s.switches);
    e.0
}

fn decode_sched(buf: &[u8]) -> Result<SchedSnapshot, CheckpointError> {
    let mut d = Dec::new(buf);
    let s = SchedSnapshot {
        t_sample: d.opt_f64_bits()?,
        t_train: d.opt_f64_bits()?,
        t_standby: d.opt_f64_bits()?,
        refresh_secs: d.opt_f64_bits()?,
        switches: d.u64()?,
    };
    d.finished()?;
    Ok(s)
}

fn encode_rng(r: &RngCursor) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(r.seed);
    e.u64(r.next_epoch);
    e.u64(r.next_batch);
    e.0
}

fn decode_rng(buf: &[u8]) -> Result<RngCursor, CheckpointError> {
    let mut d = Dec::new(buf);
    let r = RngCursor {
        seed: d.u64()?,
        next_epoch: d.u64()?,
        next_batch: d.u64()?,
    };
    d.finished()?;
    Ok(r)
}

fn encode_recovery(r: &RecoveryReport) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(r.faults_injected as u64);
    e.u64(r.replayed_batches as u64);
    e.u64(r.respawns as u64);
    e.u64(r.reassignments as u64);
    e.u64(r.retries as u64);
    e.u64(r.downtime_ns);
    e.0
}

fn decode_recovery(buf: &[u8]) -> Result<RecoveryReport, CheckpointError> {
    let mut d = Dec::new(buf);
    let cap = 1usize << 40;
    let r = RecoveryReport {
        faults_injected: d.usize_checked("faults_injected", cap)?,
        replayed_batches: d.usize_checked("replayed_batches", cap)?,
        respawns: d.usize_checked("respawns", cap)?,
        reassignments: d.usize_checked("reassignments", cap)?,
        retries: d.usize_checked("retries", cap)?,
        downtime_ns: d.u64()?,
    };
    d.finished()?;
    Ok(r)
}

fn encode_history(h: &[BatchRecord]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(h.len() as u64);
    for r in h {
        e.u64(r.id);
        e.u32(r.loss.to_bits());
        e.u64(r.acc.to_bits());
    }
    e.0
}

fn decode_history(buf: &[u8]) -> Result<Vec<BatchRecord>, CheckpointError> {
    let mut d = Dec::new(buf);
    let n = d.usize_checked("history length", buf.len() / 20 + 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(BatchRecord {
            id: d.u64()?,
            loss: f32::from_bits(d.u32()?),
            acc: f64::from_bits(d.u64()?),
        });
    }
    d.finished()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Whole-file assembly and parsing
// ---------------------------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Serializes `state` (plus its generation number) into the on-disk byte
/// layout, CRCs and all.
pub fn encode(state: &CheckpointState, generation: u64) -> Vec<u8> {
    let sections: Vec<([u8; 4], Vec<u8>)> = vec![
        (TAG_META, encode_meta(&state.meta, state.cursor, generation)),
        (TAG_MODEL, {
            let mut e = Enc::default();
            e.matrices(&state.params);
            e.0
        }),
        (TAG_OPT, encode_opt(&state.opt)),
        (TAG_SCHED, encode_sched(&state.sched)),
        (TAG_RNG, encode_rng(&state.rng)),
        (TAG_RECOVERY, encode_recovery(&state.recovery)),
        (TAG_HISTORY, encode_history(&state.history)),
    ];
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        push_section(&mut out, *tag, payload);
    }
    out
}

/// Parses and fully validates one checkpoint image: magic, version,
/// section structure, per-section CRC, each section's internal layout,
/// the RNG-cursor/batch-cursor cross-check, and a history that names each
/// batch of the run at most once.
pub fn decode(bytes: &[u8]) -> Result<(CheckpointState, u64), CheckpointError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(corrupt("file shorter than header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut d = Dec::new(&bytes[8..]);
    let version = d.u32()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let section_count = d.u32()?;
    let mut meta = None;
    let mut params = None;
    let mut opt = None;
    let mut sched = None;
    let mut rng = None;
    let mut recovery = None;
    let mut history = None;
    for _ in 0..section_count {
        let tag: [u8; 4] =
            gnnlab_par::invariant!(d.take(4)?.try_into(), "take(4) yields exactly four bytes");
        let len = d.usize_checked("section length", bytes.len())?;
        let payload = d.take(len)?;
        let stored_crc = d.u32()?;
        let actual = crc32(payload);
        if stored_crc != actual {
            return Err(corrupt(format!(
                "crc mismatch in section {:?} (stored {stored_crc:08x}, actual {actual:08x})",
                String::from_utf8_lossy(&tag)
            )));
        }
        match tag {
            TAG_META => meta = Some(decode_meta(payload)?),
            TAG_MODEL => {
                let mut pd = Dec::new(payload);
                let ms = pd.matrices()?;
                pd.finished()?;
                params = Some(ms);
            }
            TAG_OPT => opt = Some(decode_opt(payload)?),
            TAG_SCHED => sched = Some(decode_sched(payload)?),
            TAG_RNG => rng = Some(decode_rng(payload)?),
            TAG_RECOVERY => recovery = Some(decode_recovery(payload)?),
            TAG_HISTORY => history = Some(decode_history(payload)?),
            other => {
                return Err(corrupt(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&other)
                )))
            }
        }
    }
    d.finished()?;
    let (meta, cursor, generation) = meta.ok_or_else(|| corrupt("missing META section"))?;
    let state = CheckpointState {
        meta,
        params: params.ok_or_else(|| corrupt("missing MODL section"))?,
        opt: opt.ok_or_else(|| corrupt("missing OPTS section"))?,
        sched: sched.ok_or_else(|| corrupt("missing SCHD section"))?,
        rng: rng.ok_or_else(|| corrupt("missing RNGS section"))?,
        recovery: recovery.ok_or_else(|| corrupt("missing RCVR section"))?,
        history: history.ok_or_else(|| corrupt("missing HIST section"))?,
        cursor,
    };
    // Cross-check: the RNG position must agree with the batch cursor.
    let bpe = state.meta.batches_per_epoch.max(1);
    let expect = RngCursor {
        seed: state.meta.seed,
        next_epoch: state.cursor / bpe,
        next_batch: state.cursor % bpe,
    };
    if state.rng != expect {
        return Err(corrupt(format!(
            "rng cursor {:?} disagrees with batch cursor {}",
            state.rng, state.cursor
        )));
    }
    if state.history.len() as u64 != state.cursor {
        return Err(corrupt(format!(
            "history has {} records but cursor is {}",
            state.history.len(),
            state.cursor
        )));
    }
    let mut ids: Vec<u64> = state.history.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if let Some(&last) = ids.last().filter(|&&id| id >= state.meta.total_batches) {
        return Err(corrupt(format!(
            "history names batch {last} of a {}-batch run",
            state.meta.total_batches
        )));
    }
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(corrupt(format!("history names batch {} twice", w[0])));
    }
    Ok((state, generation))
}

// ---------------------------------------------------------------------------
// Filesystem: atomic write, latest-valid selection
// ---------------------------------------------------------------------------

fn generation_filename(generation: u64) -> String {
    format!("ckpt-{generation:08}.bin")
}

fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// File names in `dir`; a missing or unreadable directory has none.
fn file_names(dir: &Path) -> impl Iterator<Item = String> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
}

/// The generations on disk, oldest first: every `ckpt-<gen>.bin` a
/// directory scan finds. Each one's rename was its commit, so the scan
/// is the whole index.
fn scan_generations(dir: &Path) -> Vec<u64> {
    let mut gens: Vec<u64> = file_names(dir)
        .filter_map(|name| parse_generation(&name))
        .collect();
    gens.sort_unstable();
    gens.dedup();
    gens
}

/// Atomically writes `state` as generation `generation` into `dir`,
/// returning the encoded byte count. The sequence is: assemble in
/// memory → write `ckpt-<gen>.bin.tmp` → fsync → rename → fsync dir →
/// prune generations beyond `keep`.
///
/// `chaos.kill_mid_write == Some(generation)` aborts after writing half
/// the temp file (no rename): the torn `.tmp` stays behind, exactly what
/// a power cut mid-write leaves.
pub fn write_generation(
    dir: &Path,
    generation: u64,
    state: &CheckpointState,
    keep: usize,
    chaos: &ChaosPlan,
) -> Result<u64, CheckpointError> {
    fs::create_dir_all(dir)?;
    if let Some(pause) = chaos.slow_disk {
        std::thread::sleep(pause);
    }
    let bytes = encode(state, generation);
    let killed = chaos.kill_mid_write == Some(generation);
    let written = if killed {
        &bytes[..bytes.len() / 2]
    } else {
        &bytes[..]
    };
    let tmp_path = dir.join(format!("{}.tmp", generation_filename(generation)));
    let mut f = fs::File::create(&tmp_path)?;
    f.write_all(written)?;
    f.sync_all()?;
    drop(f);
    if killed {
        return Err(CheckpointError::KilledMidWrite);
    }
    fs::rename(&tmp_path, dir.join(generation_filename(generation)))?;
    fsync_dir(dir)?;
    let gens = scan_generations(dir);
    for old in &gens[..gens.len().saturating_sub(keep.max(1))] {
        let _ = fs::remove_file(dir.join(generation_filename(*old)));
    }
    Ok(bytes.len() as u64)
}

/// Selects and loads the newest valid generation in `dir`.
///
/// Walks the directory's `ckpt-*.bin` generations newest-first,
/// validating each candidate end to end; corrupt or truncated
/// generations and stray `.tmp` files are counted in
/// [`LoadOutcome::torn_detected`] and skipped, falling back to the
/// previous generation. A missing or empty directory yields
/// `loaded: None` — the caller starts fresh.
pub fn load_latest(dir: &Path) -> LoadOutcome {
    let mut torn = file_names(dir)
        .filter(|name| name.ends_with(".bin.tmp"))
        .count() as u64;
    let mut loaded = None;
    for generation in scan_generations(dir).into_iter().rev() {
        match fs::read(dir.join(generation_filename(generation))) {
            Ok(bytes) => match decode(&bytes) {
                Ok((state, stored_gen)) if stored_gen == generation => {
                    loaded = Some((generation, state));
                    break;
                }
                Ok(_) | Err(_) => torn += 1,
            },
            Err(_) => torn += 1,
        }
    }
    LoadOutcome {
        loaded,
        torn_detected: torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnlab-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state(cursor: u64) -> CheckpointState {
        let bpe = 4;
        CheckpointState {
            meta: CheckpointMeta {
                seed: 42,
                epochs: 3,
                batch_size: 8,
                hidden_dim: 16,
                lr_bits: 0.01f32.to_bits(),
                model_kind: ModelKind::GraphSage,
                num_vertices: 100,
                num_edges: 900,
                feat_dim: 8,
                num_classes: 4,
                batches_per_epoch: bpe,
                total_batches: bpe * 3,
                num_samplers: 1,
                num_trainers: 1,
                dynamic_switching: false,
                trainer_rows: 10,
                standby_rows: 5,
            },
            params: vec![
                Matrix::from_vec(2, 3, vec![1.0, -2.5, 0.0, 3.25, f32::MIN_POSITIVE, 9.0]),
                Matrix::from_vec(1, 2, vec![0.5, -0.5]),
            ],
            opt: AdamState {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 7,
                m: vec![Matrix::from_vec(2, 3, vec![0.1; 6])],
                v: vec![Matrix::from_vec(2, 3, vec![0.2; 6])],
            },
            sched: SchedSnapshot {
                t_sample: Some(0.0025),
                t_train: Some(0.004),
                t_standby: None,
                refresh_secs: Some(0.5),
                switches: 2,
            },
            rng: RngCursor {
                seed: 42,
                next_epoch: cursor / bpe,
                next_batch: cursor % bpe,
            },
            cursor,
            recovery: RecoveryReport {
                faults_injected: 1,
                replayed_batches: 1,
                respawns: 1,
                reassignments: 0,
                retries: 3,
                downtime_ns: 12345,
            },
            history: (0..cursor)
                .map(|id| BatchRecord {
                    id,
                    loss: 1.0 / (id + 1) as f32,
                    acc: 0.5 + id as f64 * 0.01,
                })
                .collect(),
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let state = sample_state(6);
        let bytes = encode(&state, 3);
        let (decoded, generation) = decode(&bytes).expect("valid image decodes");
        assert_eq!(generation, 3);
        assert_eq!(decoded, state);
    }

    #[test]
    fn every_flipped_byte_in_a_payload_is_rejected() {
        let state = sample_state(4);
        let bytes = encode(&state, 0);
        // Flip a sampling of single bytes across the whole image: each
        // must fail either the CRC, the magic, or a structural check —
        // never decode to a different state silently.
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            match decode(&corrupted) {
                Err(_) => {}
                Ok((other, g)) => assert!(
                    other == state && g == 0,
                    "byte {pos} changed the decoded state without detection"
                ),
            }
        }
    }

    #[test]
    fn write_then_load_latest_roundtrips() {
        let dir = test_dir("roundtrip");
        let state = sample_state(8);
        let bytes = write_generation(&dir, 1, &state, 3, &ChaosPlan::default()).unwrap();
        assert!(bytes > 0);
        let outcome = load_latest(&dir);
        assert_eq!(outcome.torn_detected, 0);
        let (generation, loaded) = outcome.loaded.expect("checkpoint loads");
        assert_eq!(generation, 1);
        assert_eq!(loaded, state);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = test_dir("fallback");
        let older = sample_state(4);
        let newer = sample_state(8);
        write_generation(&dir, 1, &older, 3, &ChaosPlan::default()).unwrap();
        write_generation(&dir, 2, &newer, 3, &ChaosPlan::default()).unwrap();
        // Flip one byte in the newest file.
        let path = dir.join(generation_filename(2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let outcome = load_latest(&dir);
        assert_eq!(outcome.torn_detected, 1, "the corrupt file is counted");
        let (generation, loaded) = outcome.loaded.expect("previous generation survives");
        assert_eq!(generation, 1);
        assert_eq!(loaded, older);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_write_kill_leaves_a_torn_tmp_and_previous_generation_wins() {
        let dir = test_dir("midwrite");
        let older = sample_state(4);
        write_generation(&dir, 1, &older, 3, &ChaosPlan::default()).unwrap();
        let chaos = ChaosPlan {
            kill_mid_write: Some(2),
            ..ChaosPlan::default()
        };
        let err = write_generation(&dir, 2, &sample_state(8), 3, &chaos).unwrap_err();
        assert!(matches!(err, CheckpointError::KilledMidWrite));
        assert!(
            dir.join("ckpt-00000002.bin.tmp").exists(),
            "the torn temp file stays behind"
        );
        let outcome = load_latest(&dir);
        assert_eq!(outcome.torn_detected, 1, "the stray tmp is counted");
        let (generation, loaded) = outcome.loaded.expect("generation 1 still loads");
        assert_eq!(generation, 1);
        assert_eq!(loaded, older);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `MANIFEST` an older writer left behind, listing only an older
    /// generation, is just another file: the scan loads the newest valid
    /// generation. (That writer published the manifest after the rename;
    /// a kill between the two hid a complete generation from resume.)
    #[test]
    fn stale_manifest_from_an_older_writer_is_ignored() {
        let dir = test_dir("stale-manifest");
        let (older, newer) = (sample_state(4), sample_state(8));
        write_generation(&dir, 1, &older, 3, &ChaosPlan::default()).unwrap();
        write_generation(&dir, 2, &newer, 3, &ChaosPlan::default()).unwrap();
        fs::write(
            dir.join("MANIFEST"),
            "gnnlab-ckpt-manifest v1\n1 ckpt-00000001.bin\n",
        )
        .unwrap();
        let outcome = load_latest(&dir);
        assert_eq!(outcome.torn_detected, 0);
        let (generation, loaded) = outcome.loaded.expect("the scan finds generation 2");
        assert_eq!(generation, 2);
        assert_eq!(loaded, newer);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_generations() {
        let dir = test_dir("prune");
        for generation in 1..=5 {
            write_generation(&dir, generation, &sample_state(4), 2, &ChaosPlan::default()).unwrap();
        }
        assert_eq!(scan_generations(&dir), vec![4, 5]);
        // The generations are the whole directory: no index, no temp.
        let mut names: Vec<String> = file_names(&dir).collect();
        names.sort_unstable();
        assert_eq!(names, ["ckpt-00000004.bin", "ckpt-00000005.bin"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_loads_nothing() {
        let dir = test_dir("empty");
        let outcome = load_latest(&dir);
        assert!(outcome.loaded.is_none());
        assert_eq!(outcome.torn_detected, 0);
    }

    /// Re-encodes `state` with valid CRCs, so only the history check can
    /// reject it.
    fn assert_history_rejected(state: &CheckpointState, why: &str) {
        match decode(&encode(state, 2)) {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected Corrupt({why}), got {other:?}"),
        }
        let dir = test_dir(&format!("bad-history-{}", why.replace(' ', "-")));
        let older = sample_state(2);
        write_generation(&dir, 1, &older, 3, &ChaosPlan::default()).unwrap();
        write_generation(&dir, 2, state, 3, &ChaosPlan::default()).unwrap();
        let outcome = load_latest(&dir);
        assert_eq!(outcome.torn_detected, 1, "the bad generation is counted");
        assert_eq!(outcome.loaded, Some((1, older)), "falls back a generation");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_history_naming_a_batch_twice_is_corrupt() {
        let mut state = sample_state(4);
        state.history[3].id = 1;
        assert_history_rejected(&state, "twice");
    }

    #[test]
    fn a_history_naming_a_batch_past_the_run_is_corrupt() {
        let mut state = sample_state(4);
        state.history[3].id = state.meta.total_batches;
        assert_history_rejected(&state, "of a 12-batch run");
        // The last batch of the run, and holes below it, are fine.
        state.history[3].id = state.meta.total_batches - 1;
        assert!(decode(&encode(&state, 0)).is_ok());
    }

    #[test]
    fn policy_defaults_are_disabled_and_epoch_cadenced() {
        let p = CheckpointPolicy::default();
        assert!(!p.enabled());
        let p = CheckpointPolicy::at("/tmp/x");
        assert!(p.enabled());
        assert_eq!(p.batch_cadence(12), 12, "default = epoch boundaries");
        let p = CheckpointPolicy {
            every_batches: Some(7),
            ..CheckpointPolicy::at("/tmp/x")
        };
        assert_eq!(p.batch_cadence(12), 7);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32/IEEE of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
