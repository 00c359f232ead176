//! Shared test doubles for integration tests (this crate's and its
//! dependents').
//!
//! Not part of the engine's API contract — these exist so the engine,
//! service and harness test suites can deterministically freeze
//! storage-level events without each carrying its own copy of the
//! wrapper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use bytes::Bytes;

use crate::reader::{ReadContext, ReadPathCounters, SstableReader};
use crate::storage::{MemoryStorage, Storage};
use crate::types::Entry;
use crate::Error;

/// Inside an `impl Storage for` a wrapper with an `inner` storage:
/// forwards each named method — and the five metadata methods no double
/// intercepts — to `self.inner` unchanged, so the double writes out
/// only the methods it intercepts.
macro_rules! forward_to_inner {
    ($($method:ident),*) => {
        $(forward_to_inner!(@ $method);)*
        forward_to_inner!(@fn blob_len(name: &str) -> Result<u64, Error>);
        forward_to_inner!(@fn contains_blob(name: &str) -> bool);
        forward_to_inner!(@fn list_blobs() -> Vec<String>);
        forward_to_inner!(@fn bytes_written() -> u64);
        forward_to_inner!(@fn bytes_read() -> u64);
    };
    (@ append_blob) => { forward_to_inner!(@fn append_blob(name: &str, data: &[u8]) -> Result<(), Error>); };
    (@ read_blob) => { forward_to_inner!(@fn read_blob(name: &str) -> Result<Bytes, Error>); };
    (@ read_blob_range) => {
        forward_to_inner!(@fn read_blob_range(name: &str, offset: u64, len: usize) -> Result<Bytes, Error>);
    };
    (@ delete_blob) => { forward_to_inner!(@fn delete_blob(name: &str) -> Result<(), Error>); };
    (@fn $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $method(&self, $($arg: $ty),*) -> $ret {
            self.inner.$method($($arg),*)
        }
    };
}

/// A [`MemoryStorage`] wrapper that can stall sstable writes on demand:
/// while the gate is closed, any `write_blob` of an `sst-*` blob blocks
/// until [`GatedStorage::open_gate`]. This freezes a compaction (or
/// flush) at its first output write, deterministically, so tests can
/// assert what the rest of the system does while that operation is
/// mid-flight — reads proceeding, admission control shedding, scans
/// surviving the manifest flip.
#[derive(Debug)]
pub struct GatedStorage {
    inner: MemoryStorage,
    gate_enabled: AtomicBool,
    /// `true` = open.
    gate: Mutex<bool>,
    signal: Condvar,
}

impl Default for GatedStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl GatedStorage {
    /// An empty gated store with the gate open (writes pass through).
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: MemoryStorage::new(),
            gate_enabled: AtomicBool::new(false),
            gate: Mutex::new(true),
            signal: Condvar::new(),
        }
    }

    /// Arms the gate: subsequent sstable writes block until
    /// [`GatedStorage::open_gate`].
    pub fn close_gate(&self) {
        *self.gate.lock().unwrap() = false;
        self.gate_enabled.store(true, Ordering::SeqCst);
    }

    /// Opens the gate, releasing every blocked writer.
    pub fn open_gate(&self) {
        *self.gate.lock().unwrap() = true;
        self.signal.notify_all();
    }

    fn wait_if_gated(&self, name: &str) {
        if !self.gate_enabled.load(Ordering::SeqCst) || !name.starts_with("sst-") {
            return;
        }
        let mut open = self.gate.lock().unwrap();
        while !*open {
            open = self.signal.wait(open).unwrap();
        }
    }
}

impl Storage for GatedStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.wait_if_gated(name);
        self.inner.write_blob(name, data)
    }

    forward_to_inner!(append_blob, read_blob, read_blob_range, delete_blob);
}

/// A [`MemoryStorage`] wrapper that simulates a process death at an
/// exact write offset: after a scripted byte budget is exhausted, the
/// write in flight dies and every subsequent mutation fails — what a
/// power cut leaves on disk. Tear semantics follow the [`Storage`]
/// contract: a `write_blob` of an *existing* blob keeps its previous
/// contents (the rename never happened) and of a *brand-new* blob leaves
/// a partial prefix; an `append_blob` leaves a prefix of the appended
/// bytes after everything appended before (the torn tail recovery must
/// treat as unacked).
///
/// [`Storage::write_blob_atomic`] honors its contract even at the
/// crash point: the swap either happens entirely (budget covers it) or
/// not at all — a torn `CURRENT`-style pointer can only come from
/// backends that ignore the atomic hint, which the fault battery also
/// exercises by corrupting blobs directly via [`corrupt_blob_byte`].
///
/// Drive it with [`CrashPointStorage::crash_after`], run the workload
/// until it errors, then [`CrashPointStorage::surviving`] hands the
/// post-crash bytes to a fresh reopen.
#[derive(Debug)]
pub struct CrashPointStorage {
    inner: MemoryStorage,
    /// Mutation bytes remaining before the simulated death;
    /// `u64::MAX` = no crash scripted.
    budget: AtomicU64,
    dead: AtomicBool,
}

impl Default for CrashPointStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl CrashPointStorage {
    /// An empty store with no crash scripted.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: MemoryStorage::new(),
            budget: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
        }
    }

    /// Scripts the death: after `bytes` more mutation bytes, the write
    /// in flight tears and the process is "dead" (all later mutations
    /// fail).
    pub fn crash_after(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::SeqCst);
        self.dead.store(false, Ordering::SeqCst);
    }

    /// `true` once the scripted crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Copies the surviving (post-crash) blob set into a fresh
    /// [`MemoryStorage`], the disk image a reopen would see.
    #[must_use]
    pub fn surviving(&self) -> MemoryStorage {
        let copy = MemoryStorage::new();
        for name in self.inner.list_blobs() {
            if let Ok(bytes) = self.inner.read_blob(&name) {
                copy.write_blob(&name, &bytes).unwrap();
            }
        }
        copy
    }

    /// Charges `len` against the budget. `Ok(len)` = full write goes
    /// through; `Ok(prefix)` = tear the write at `prefix` bytes and
    /// die; `Err` = already dead.
    fn charge(&self, len: usize) -> Result<usize, Error> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_storage_error());
        }
        let budget = self.budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            return Ok(len);
        }
        if (len as u64) <= budget {
            self.budget.store(budget - len as u64, Ordering::SeqCst);
            Ok(len)
        } else {
            self.dead.store(true, Ordering::SeqCst);
            Ok(budget as usize)
        }
    }
}

/// The error every mutation returns after the scripted death.
fn dead_storage_error() -> Error {
    Error::Io(std::io::Error::other("simulated crash: storage is dead"))
}

/// Flips one bit of `name` at `offset` on any [`MemoryStorage`].
/// Returns `false` if the blob is missing or shorter than `offset`.
pub fn corrupt_blob_byte(storage: &MemoryStorage, name: &str, offset: usize) -> bool {
    let Ok(bytes) = storage.read_blob(name) else {
        return false;
    };
    if offset >= bytes.len() {
        return false;
    }
    let mut data = bytes.to_vec();
    data[offset] ^= 0x40;
    storage.write_blob(name, &data).unwrap();
    true
}

/// Every entry of table `table_id`, in internal-key order, read the
/// way maintenance reads a table.
///
/// # Errors
///
/// Fails if the blob is missing or any part of it is corrupt.
pub fn read_table(storage: &dyn Storage, table_id: u64) -> Result<Vec<Entry>, Error> {
    let reader = SstableReader::open(storage, table_id, None)?;
    let counters = ReadPathCounters::default();
    reader
        .iter(ReadContext::whole_table(storage, &counters))
        .collect()
}

impl Storage for CrashPointStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let allowed = self.charge(data.len())?;
        if allowed == data.len() {
            self.inner.write_blob(name, data)
        } else if self.inner.contains_blob(name) {
            // Both real backends replace blobs atomically (FileStorage
            // writes a temp file and renames), so a crash mid-rewrite
            // leaves the *previous* contents — acked bytes never tear.
            Err(dead_storage_error())
        } else {
            // A brand-new blob tears: the partial file exists but holds
            // only a prefix, which recovery must treat as unacked (the
            // WAL's torn-tail taxon, or an orphaned partial sstable).
            self.inner.write_blob(name, &data[..allowed])?;
            Err(dead_storage_error())
        }
    }

    fn write_blob_atomic(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let allowed = self.charge(data.len())?;
        if allowed == data.len() {
            self.inner.write_blob(name, data)
        } else {
            // All-or-nothing: the swap never happened.
            Err(dead_storage_error())
        }
    }

    fn append_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        // An append has no rename to hide behind: it tears at any byte,
        // whether or not the blob already exists.
        let allowed = self.charge(data.len())?;
        self.inner.append_blob(name, &data[..allowed])?;
        if allowed == data.len() {
            Ok(())
        } else {
            Err(dead_storage_error())
        }
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_storage_error());
        }
        self.inner.delete_blob(name)
    }

    forward_to_inner!(read_blob, read_blob_range);
}
