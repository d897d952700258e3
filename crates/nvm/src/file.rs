//! File-backed pool persistence: on-disk layout, checksums and I/O fault
//! injection.
//!
//! ## Layout
//!
//! A file-backed pool is one file:
//!
//! ```text
//! [ file header, 4096 B ][ per-line CRC table ][ data: the persistent image ]
//! ```
//!
//! * **File header** — magic, format version, capacity, a generation stamp
//!   (bumped on every read-write open, so forensics can tell restarts apart)
//!   and a CRC32 over the header fields. A mismatch is a typed
//!   [`NvmError::Corrupt`], never a panic.
//! * **CRC table** — one little-endian CRC32 per cacheline of the data
//!   region, written together with the line. The CRCs are *advisory*: a
//!   mismatch on open means the line (or its CRC) was in flight when the
//!   process died — a legitimate crash outcome the REWIND log protocol must
//!   tolerate — so it is reported as a suspect line in the
//!   [`FileOpenReport`], not treated as fatal. Corruption of the *header* is
//!   fatal (except in salvage mode) because nothing above it can be trusted.
//! * **Data region** — the persistent image, written back at cacheline
//!   granularity on each fence. The region grows lazily: a line is only
//!   materialised in the file the first time it is written back, which is
//!   how the chained decision log grows the file page by page. Bytes beyond
//!   EOF read as zero, which is exactly what never-persisted pool memory
//!   contains.
//!
//! ## Fence semantics
//!
//! [`NvmPool::sfence`](crate::NvmPool::sfence) on a file pool writes every
//! pending line (data + CRC) and then `fsync`s. For a process killed with
//! `SIGKILL` (the crash model the kill-9 harness tests), completed `write`s
//! survive in the page cache even without the final `fsync`; the `fsync`
//! additionally covers OS/power failure. The backend's durability claim to
//! the pool is deliberately conservative: a fence that did not complete
//! leaves its lines marked pending, and the pool freezes, so no caller can
//! mistake an unfenced write for a durable one.
//!
//! ## Fault injection
//!
//! Every write and fsync funnels through an [`IoFaultInjector`] configured
//! by [`FaultConfig`] (programmatically or via the `REWIND_IO_FAULTS`
//! environment variable). Supported faults: transient `EIO` healed by the
//! bounded retry-with-backoff loop, short writes, a torn write that persists
//! half a cacheline and then kills the device (or the whole process), a
//! plain `SIGKILL` at the N-th file operation, and an `fsync` failure that
//! is fatal for that fence.

use crate::backend::{LineSnapshot, PoolBackend};
use crate::paddr::CACHELINE;
use crate::{NvmError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic number at offset 0 of a pool file ("REWFPOOL").
pub const FILE_MAGIC: u64 = 0x5245_5746_504f_4f4c;
/// Current pool-file format version.
pub const FILE_VERSION: u64 = 1;
/// Size of the file header in bytes; the CRC table starts here.
pub const FILE_HEADER_SIZE: u64 = 4096;

/// Environment variable holding a [`FaultConfig`] as `key=value` pairs
/// separated by commas, e.g. `seed=3,eio_every=97,kill_at=1200`.
pub const IO_FAULTS_ENV: &str = "REWIND_IO_FAULTS";

const FH_MAGIC: usize = 0;
const FH_VERSION: usize = 8;
const FH_CAPACITY: usize = 16;
const FH_GENERATION: usize = 24;
const FH_FLAGS: usize = 32;
const FH_CRC: usize = 40;
/// Header bytes covered by the header CRC (everything before the CRC field).
const FH_CRC_COVERS: usize = 40;

/// Retries for a transient I/O error before it is treated as fatal.
const MAX_IO_RETRIES: u32 = 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven — no external dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Deterministic I/O fault plan for a file-backed pool. All counters are in
/// units of *file operations* (each line write, CRC write and fsync is one
/// operation), so a seed maps to an exact crash point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the derived choices (e.g. which half of a torn line
    /// survives).
    pub seed: u64,
    /// Every N-th operation fails with a transient `EIO` that heals after
    /// [`FaultConfig::eio_burst`] retries. `0` disables.
    pub eio_every: u64,
    /// Consecutive failures per transient-EIO hit. Values above the retry
    /// budget turn the hit into a hard failure. `0` means 2.
    pub eio_burst: u32,
    /// Every N-th line write is split into two separate writes (a short
    /// write completed by the retry loop), so a kill can land between the
    /// halves. `0` disables.
    pub short_every: u64,
    /// At operation N, persist only half the cacheline, then fail the
    /// operation and every later one (the device dies torn). `0` disables.
    pub torn_at: u64,
    /// At operation N, fail the `fsync` (fatal for that fence) and every
    /// later operation. `0` disables.
    pub fsync_fail_at: u64,
    /// At operation N, `SIGKILL` the calling process — the real-crash
    /// harness hook. `0` disables.
    pub kill_at: u64,
    /// At operation N, persist half the cacheline and then `SIGKILL` the
    /// process (a torn write cut short by a real crash). `0` disables.
    pub torn_kill_at: u64,
}

impl FaultConfig {
    /// Parses the [`IO_FAULTS_ENV`] environment variable, if set. Unknown
    /// keys and malformed numbers are ignored so a stale variable cannot
    /// brick unrelated tests.
    pub fn from_env() -> Option<FaultConfig> {
        let raw = std::env::var(IO_FAULTS_ENV).ok()?;
        Some(Self::parse(&raw))
    }

    /// Parses a `key=value,key=value` fault spec (the [`IO_FAULTS_ENV`]
    /// format).
    pub fn parse(raw: &str) -> FaultConfig {
        let mut cfg = FaultConfig::default();
        for part in raw.split(',') {
            let part = part.trim();
            let Some((k, v)) = part.split_once('=') else {
                continue;
            };
            let Ok(n) = v.trim().parse::<u64>() else {
                continue;
            };
            match k.trim() {
                "seed" => cfg.seed = n,
                "eio_every" => cfg.eio_every = n,
                "eio_burst" => cfg.eio_burst = n as u32,
                "short_every" => cfg.short_every = n,
                "torn_at" => cfg.torn_at = n,
                "fsync_fail_at" => cfg.fsync_fail_at = n,
                "kill_at" => cfg.kill_at = n,
                "torn_kill_at" => cfg.torn_kill_at = n,
                _ => {}
            }
        }
        cfg
    }

    /// `true` if no fault will ever fire.
    pub fn is_inert(&self) -> bool {
        self.eio_every == 0
            && self.short_every == 0
            && self.torn_at == 0
            && self.fsync_fail_at == 0
            && self.kill_at == 0
            && self.torn_kill_at == 0
    }

    fn eio_burst_or_default(&self) -> u32 {
        if self.eio_burst == 0 {
            2
        } else {
            self.eio_burst
        }
    }
}

/// What the injector wants to happen to the current file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// Fail with `ErrorKind::Interrupted` this many times before succeeding.
    Transient(u32),
    /// Split the write in two (short write).
    Short,
    /// Persist half the line, then the device dies.
    TornThenDead,
    /// Persist half the line, then SIGKILL the process.
    TornKill,
    /// SIGKILL the process before the operation.
    Kill,
    /// Fail the fsync; the device dies.
    FsyncDead,
}

#[derive(Debug)]
struct IoFaultInjector {
    cfg: FaultConfig,
    ops: AtomicU64,
    dead: AtomicBool,
}

impl IoFaultInjector {
    fn new(cfg: FaultConfig) -> Self {
        IoFaultInjector {
            cfg,
            ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn set_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Accounts one write operation and decides its fate.
    fn on_write(&self) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let c = &self.cfg;
        if c.kill_at != 0 && op == c.kill_at {
            return Fault::Kill;
        }
        if c.torn_kill_at != 0 && op == c.torn_kill_at {
            return Fault::TornKill;
        }
        if c.torn_at != 0 && op == c.torn_at {
            return Fault::TornThenDead;
        }
        if c.eio_every != 0 && op.is_multiple_of(c.eio_every) {
            return Fault::Transient(c.eio_burst_or_default());
        }
        if c.short_every != 0 && op.is_multiple_of(c.short_every) {
            return Fault::Short;
        }
        Fault::None
    }

    /// Accounts one fsync operation and decides its fate.
    fn on_sync(&self) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let c = &self.cfg;
        if c.kill_at != 0 && op == c.kill_at {
            return Fault::Kill;
        }
        if c.fsync_fail_at != 0 && op >= c.fsync_fail_at {
            return Fault::FsyncDead;
        }
        Fault::None
    }
}

/// Kills the current process with a real, uncatchable `SIGKILL` — the
/// injected crash points of the kill-9 harness. Never returns.
fn kill_self_now() -> ! {
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(std::process::id().to_string())
        .status();
    // If kill(1) is unavailable the abort below still terminates the process
    // without unwinding or running destructors.
    std::process::abort();
}

fn is_transient_io(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

// ---------------------------------------------------------------------------
// Open report
// ---------------------------------------------------------------------------

/// What [`NvmPool::open_file`](crate::NvmPool::open_file) learned about the
/// file it attached to.
#[derive(Debug, Clone, Default)]
pub struct FileOpenReport {
    /// Path of the pool file.
    pub path: PathBuf,
    /// Generation stamp after this open (bumped once per read-write open).
    pub generation: u64,
    /// File size at open time.
    pub file_len: u64,
    /// Pool capacity recorded in the header.
    pub capacity: usize,
    /// Cachelines whose stored CRC does not match their content — lines (or
    /// CRCs) that were in flight when the previous process died. Recovery is
    /// expected to tolerate these; they are forensic evidence, not errors.
    pub suspect_lines: Vec<u64>,
    /// `true` if the file was opened in read-only salvage mode.
    pub salvage: bool,
    /// Validation failures tolerated by salvage mode (empty otherwise).
    pub salvage_notes: Vec<String>,
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

pub(crate) struct OpenedFile {
    pub backend: FileBackend,
    pub image: Vec<u8>,
    pub report: FileOpenReport,
}

/// File-backed [`PoolBackend`]: mirrors the persistent image onto one file.
pub struct FileBackend {
    file: Mutex<File>,
    path: PathBuf,
    crc_off: u64,
    data_off: u64,
    faults: IoFaultInjector,
    read_only: bool,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("path", &self.path)
            .field("read_only", &self.read_only)
            .finish_non_exhaustive()
    }
}

fn geometry(capacity: usize) -> (u64, u64) {
    let lines = (capacity / CACHELINE) as u64;
    let crc_off = FILE_HEADER_SIZE;
    let crc_bytes = lines * 4;
    let data_off = crc_off + crc_bytes.div_ceil(4096) * 4096;
    (crc_off, data_off)
}

fn render_header(capacity: usize, generation: u64) -> [u8; FILE_HEADER_SIZE as usize] {
    let mut h = [0u8; FILE_HEADER_SIZE as usize];
    h[FH_MAGIC..FH_MAGIC + 8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    h[FH_VERSION..FH_VERSION + 8].copy_from_slice(&FILE_VERSION.to_le_bytes());
    h[FH_CAPACITY..FH_CAPACITY + 8].copy_from_slice(&(capacity as u64).to_le_bytes());
    h[FH_GENERATION..FH_GENERATION + 8].copy_from_slice(&generation.to_le_bytes());
    h[FH_FLAGS..FH_FLAGS + 8].copy_from_slice(&0u64.to_le_bytes());
    let crc = crc32(&h[..FH_CRC_COVERS]);
    h[FH_CRC..FH_CRC + 4].copy_from_slice(&crc.to_le_bytes());
    h
}

fn read_u64_le(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

impl FileBackend {
    /// Creates and formats a fresh pool file of the given capacity.
    pub(crate) fn create(path: &Path, capacity: usize, faults: FaultConfig) -> Result<FileBackend> {
        let (crc_off, data_off) = geometry(capacity);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| NvmError::from_io(&e, &format!("create pool file {}", path.display())))?;
        // Reserve header + CRC table (zeroed); the data region grows lazily.
        file.set_len(data_off)
            .map_err(|e| NvmError::from_io(&e, "reserve pool file header"))?;
        let backend = FileBackend {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            crc_off,
            data_off,
            faults: IoFaultInjector::new(faults),
            read_only: false,
        };
        {
            let mut f = backend.file.lock().unwrap();
            let header = render_header(capacity, 1);
            backend.faulted_write(&mut f, 0, &header)?;
            backend.faulted_sync(&f)?;
        }
        Ok(backend)
    }

    /// Opens an existing pool file, validates it, reads the whole image and
    /// (unless `salvage`) bumps the generation stamp.
    pub(crate) fn open(path: &Path, faults: FaultConfig, salvage: bool) -> Result<OpenedFile> {
        let mut report = FileOpenReport {
            path: path.to_path_buf(),
            salvage,
            ..FileOpenReport::default()
        };
        let mut opts = OpenOptions::new();
        opts.read(true);
        if !salvage {
            opts.write(true);
        }
        let mut file = opts
            .open(path)
            .map_err(|e| NvmError::from_io(&e, &format!("open pool file {}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(|e| NvmError::from_io(&e, "stat pool file"))?
            .len();
        report.file_len = file_len;

        // --- header ---
        let mut header = [0u8; FILE_HEADER_SIZE as usize];
        let mut corrupt = |detail: String| -> Result<()> {
            if salvage {
                report.salvage_notes.push(detail);
                Ok(())
            } else {
                Err(NvmError::Corrupt { detail })
            }
        };
        if file_len < FILE_HEADER_SIZE {
            corrupt(format!(
                "file is {file_len} bytes, shorter than the {FILE_HEADER_SIZE}-byte header"
            ))?;
        } else {
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_exact(&mut header))
                .map_err(|e| NvmError::from_io(&e, "read pool file header"))?;
        }
        let magic = read_u64_le(&header, FH_MAGIC);
        if magic != FILE_MAGIC {
            corrupt(format!("bad file magic {magic:#x} (want {FILE_MAGIC:#x})"))?;
        }
        let version = read_u64_le(&header, FH_VERSION);
        if magic == FILE_MAGIC && version != FILE_VERSION {
            corrupt(format!(
                "unsupported pool file version {version} (want {FILE_VERSION})"
            ))?;
        }
        let stored_crc = u32::from_le_bytes([
            header[FH_CRC],
            header[FH_CRC + 1],
            header[FH_CRC + 2],
            header[FH_CRC + 3],
        ]);
        let computed_crc = crc32(&header[..FH_CRC_COVERS]);
        if magic == FILE_MAGIC && stored_crc != computed_crc {
            corrupt(format!(
                "header CRC mismatch: stored {stored_crc:#x}, computed {computed_crc:#x}"
            ))?;
        }

        // --- geometry ---
        let capacity = if magic == FILE_MAGIC && stored_crc == computed_crc {
            let cap = read_u64_le(&header, FH_CAPACITY);
            if !(2 * 4096..=(1u64 << 40)).contains(&cap)
                || !(cap as usize).is_multiple_of(CACHELINE)
            {
                corrupt(format!("implausible capacity {cap} in header"))?;
                // Salvage fallback below.
                0
            } else {
                cap as usize
            }
        } else {
            0
        };
        let capacity = if capacity == 0 {
            // Salvage fallback: infer from the file size (header + 4 bytes of
            // CRC + 64 bytes of data per line).
            let payload = file_len.saturating_sub(FILE_HEADER_SIZE);
            let lines = payload / (CACHELINE as u64 + 4);
            let cap = ((lines as usize) * CACHELINE).max(2 * 4096);
            report
                .salvage_notes
                .push(format!("capacity inferred from file size: {cap}"));
            cap
        } else {
            capacity
        };
        report.capacity = capacity;
        let generation = read_u64_le(&header, FH_GENERATION);
        let (crc_off, data_off) = geometry(capacity);
        let lines = capacity / CACHELINE;

        // --- CRC table + image ---
        let mut crcs = vec![0u8; lines * 4];
        if file_len > crc_off {
            let n = ((file_len - crc_off) as usize).min(crcs.len());
            file.seek(SeekFrom::Start(crc_off))
                .and_then(|_| file.read_exact(&mut crcs[..n]))
                .map_err(|e| NvmError::from_io(&e, "read pool CRC table"))?;
        }
        let mut image = vec![0u8; capacity];
        if file_len > data_off {
            let n = ((file_len - data_off) as usize).min(capacity);
            file.seek(SeekFrom::Start(data_off))
                .and_then(|_| file.read_exact(&mut image[..n]))
                .map_err(|e| NvmError::from_io(&e, "read pool image"))?;
        }
        for line in 0..lines as u64 {
            let stored = u32::from_le_bytes([
                crcs[line as usize * 4],
                crcs[line as usize * 4 + 1],
                crcs[line as usize * 4 + 2],
                crcs[line as usize * 4 + 3],
            ]);
            let start = line as usize * CACHELINE;
            let data = &image[start..start + CACHELINE];
            let computed = crc32(data);
            // `stored == 0` on an all-zero line means "never written back".
            if stored != computed && !(stored == 0 && data.iter().all(|&b| b == 0)) {
                report.suspect_lines.push(line);
            }
        }

        let backend = FileBackend {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            crc_off,
            data_off,
            faults: IoFaultInjector::new(faults),
            read_only: salvage,
        };
        if salvage {
            report.generation = generation;
        } else {
            // Stamp a new generation so restarts are distinguishable.
            report.generation = generation.wrapping_add(1);
            let header = render_header(capacity, report.generation);
            let mut f = backend.file.lock().unwrap();
            backend.faulted_write(&mut f, 0, &header)?;
            backend.faulted_sync(&f)?;
        }
        Ok(OpenedFile {
            backend,
            image,
            report,
        })
    }

    fn raw_write(file: &mut File, off: u64, buf: &[u8]) -> std::io::Result<()> {
        file.seek(SeekFrom::Start(off))?;
        file.write_all(buf)
    }

    /// One logical write, funnelled through the fault injector and the
    /// bounded retry-with-backoff loop.
    fn faulted_write(&self, file: &mut File, off: u64, buf: &[u8]) -> Result<()> {
        if self.faults.is_dead() {
            return Err(NvmError::Io {
                kind: std::io::ErrorKind::Other,
                detail: format!("pool file device dead (injected): {}", self.path.display()),
            });
        }
        let fault = self.faults.on_write();
        match fault {
            Fault::Kill => kill_self_now(),
            Fault::TornKill | Fault::TornThenDead => {
                // Persist one half of the write, seeded, then die.
                let half = buf.len() / 2;
                let first_half = (self.cfg_seed() ^ off) & 1 == 0;
                let (t_off, t_buf) = if first_half {
                    (off, &buf[..half])
                } else {
                    (off + half as u64, &buf[half..])
                };
                let _ = Self::raw_write(file, t_off, t_buf);
                let _ = file.sync_data();
                if fault == Fault::TornKill {
                    kill_self_now();
                }
                self.faults.set_dead();
                return Err(NvmError::Io {
                    kind: std::io::ErrorKind::Other,
                    detail: format!(
                        "injected torn write at offset {off}: half a cacheline persisted"
                    ),
                });
            }
            _ => {}
        }
        let mut transient_left = match fault {
            Fault::Transient(n) => n,
            _ => 0,
        };
        let mut attempt = 0u32;
        loop {
            let r: std::io::Result<()> = if transient_left > 0 {
                transient_left -= 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient EIO",
                ))
            } else if fault == Fault::Short {
                // Short write: the kernel accepted only part of the buffer;
                // complete it with a second write.
                let half = buf.len() / 2;
                Self::raw_write(file, off, &buf[..half])
                    .and_then(|_| Self::raw_write(file, off + half as u64, &buf[half..]))
            } else {
                Self::raw_write(file, off, buf)
            };
            match r {
                Ok(()) => return Ok(()),
                Err(e) if attempt < MAX_IO_RETRIES && is_transient_io(&e) => {
                    attempt += 1;
                    // Bounded exponential backoff: 0/1/2/4/8 ms.
                    let ms = if attempt == 1 {
                        0
                    } else {
                        1u64 << (attempt - 2)
                    };
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
                Err(e) => {
                    self.faults.set_dead();
                    return Err(NvmError::from_io(
                        &e,
                        &format!("write pool file at offset {off}"),
                    ));
                }
            }
        }
    }

    fn faulted_sync(&self, file: &File) -> Result<()> {
        if self.faults.is_dead() {
            return Err(NvmError::Io {
                kind: std::io::ErrorKind::Other,
                detail: format!("pool file device dead (injected): {}", self.path.display()),
            });
        }
        match self.faults.on_sync() {
            Fault::Kill => kill_self_now(),
            Fault::FsyncDead => {
                self.faults.set_dead();
                return Err(NvmError::Io {
                    kind: std::io::ErrorKind::Other,
                    detail: "injected fsync failure (fatal for this fence)".into(),
                });
            }
            _ => {}
        }
        file.sync_data().map_err(|e| {
            self.faults.set_dead();
            NvmError::from_io(&e, "fsync pool file")
        })
    }

    fn cfg_seed(&self) -> u64 {
        self.faults.cfg.seed
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl PoolBackend for FileBackend {
    fn kind(&self) -> &'static str {
        if self.read_only {
            "file-ro"
        } else {
            "file"
        }
    }

    fn needs_write_back(&self) -> bool {
        !self.read_only
    }

    fn read_only(&self) -> bool {
        self.read_only
    }

    fn flush(&self, pending: &[AtomicU64], snapshot: &LineSnapshot<'_>) -> Result<()> {
        if self.read_only {
            return Ok(());
        }
        let mut file = self.file.lock().unwrap();
        // Drain the pending bitmap under the file lock: concurrent fencers
        // block here, so by the time any fence returns, every line it saw
        // pending has been written and synced (by us or by the fence that
        // drained it first).
        let mut drained: Vec<u64> = Vec::new();
        for (w, word) in pending.iter().enumerate() {
            // A clean word costs one load; only words with pending lines pay
            // the read-modify-write.
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                drained.push(w as u64 * 64 + b);
                bits &= bits - 1;
            }
        }
        if drained.is_empty() {
            return Ok(());
        }
        let result = (|| -> Result<()> {
            for &line in &drained {
                let data = snapshot(line);
                self.faulted_write(&mut file, self.data_off + line * CACHELINE as u64, &data)?;
                let crc = crc32(&data).to_le_bytes();
                self.faulted_write(&mut file, self.crc_off + line * 4, &crc)?;
            }
            self.faulted_sync(&file)
        })();
        if let Err(e) = result {
            // The fence did not complete: restore every drained bit so the
            // pool never claims durability for a line this fence covered.
            for &line in &drained {
                let idx = (line / 64) as usize;
                pending[idx].fetch_or(1 << (line % 64), Ordering::Release);
            }
            return Err(e);
        }
        Ok(())
    }

    fn file_len(&self) -> Option<u64> {
        let file = self.file.lock().unwrap();
        file.metadata().ok().map(|m| m.len())
    }

    fn io_ops(&self) -> Option<u64> {
        Some(self.faults.ops.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(&[0u8; 64]), 0);
    }

    #[test]
    fn fault_config_parse_roundtrip() {
        let cfg = FaultConfig::parse("seed=7, eio_every=97, eio_burst=2, kill_at=1200, junk=1,x");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.eio_every, 97);
        assert_eq!(cfg.eio_burst, 2);
        assert_eq!(cfg.kill_at, 1200);
        assert_eq!(cfg.torn_at, 0);
        assert!(!cfg.is_inert());
        assert!(FaultConfig::default().is_inert());
    }

    #[test]
    fn injector_fires_at_exact_ops() {
        let inj = IoFaultInjector::new(FaultConfig {
            torn_at: 3,
            ..FaultConfig::default()
        });
        assert_eq!(inj.on_write(), Fault::None);
        assert_eq!(inj.on_write(), Fault::None);
        assert_eq!(inj.on_write(), Fault::TornThenDead);
        assert_eq!(inj.on_write(), Fault::None); // exact-match, not sticky by itself
        assert!(!inj.is_dead()); // the *backend* marks death, not the counter
    }

    #[test]
    fn header_roundtrip_and_crc() {
        let h = render_header(4 << 20, 3);
        assert_eq!(read_u64_le(&h, FH_MAGIC), FILE_MAGIC);
        assert_eq!(read_u64_le(&h, FH_CAPACITY), 4 << 20);
        assert_eq!(read_u64_le(&h, FH_GENERATION), 3);
        let crc = u32::from_le_bytes([h[FH_CRC], h[FH_CRC + 1], h[FH_CRC + 2], h[FH_CRC + 3]]);
        assert_eq!(crc, crc32(&h[..FH_CRC_COVERS]));
    }
}
