//! Pluggable blob storage backing sstables, WAL segments and the manifest.
//!
//! The paper's experiments ran against local disk; the simulator in this
//! reproduction defaults to [`MemoryStorage`] so that figure sweeps are
//! not bottlenecked by the test machine's filesystem, while
//! [`FileStorage`] exercises the identical code path against real files.
//! Both report the number of bytes read and written, which is the
//! quantity ("disk I/O") the paper's cost function models.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::Error;

/// Abstraction over where blobs (sstables, WAL segments, manifest
/// snapshots) live.
///
/// Implementations must be safe for concurrent readers; the engine holds
/// the only writer. Every mutation is durable when it returns `Ok`; what
/// a *failed* (crashed) call may leave behind is stated per method.
pub trait Storage: std::fmt::Debug + Send + Sync {
    /// Writes (or replaces) the blob named `name`.
    ///
    /// Tear semantics: a failed call leaves an *existing* blob with its
    /// previous contents, and may leave a *new* blob absent or holding
    /// any prefix of `data`.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error>;

    /// Appends `data` to the blob named `name`, creating it if absent,
    /// at a cost of `data.len()` however long the blob already is (the
    /// WAL's only write).
    ///
    /// Tear semantics: a failed call may leave any prefix of `data`
    /// appended; bytes appended by earlier calls are never disturbed.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn append_blob(&self, name: &str, data: &[u8]) -> Result<(), Error>;

    /// Writes the blob named `name` with all-or-nothing visibility.
    ///
    /// Tear semantics: none — after a failed call a reader sees either
    /// the previous contents (or absence) of the blob or the complete
    /// new contents, never a torn prefix. This is the
    /// write-new-then-swap primitive the manifest's `CURRENT` pointer
    /// relies on.
    ///
    /// The default delegates to [`Storage::write_blob`]: both built-in
    /// backends already replace atomically. Fault-injecting test
    /// backends keep the two apart, which is what lets the crash battery
    /// prove the manifest swap cannot half-happen.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn write_blob_atomic(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.write_blob(name, data)
    }

    /// Reads the entire blob named `name`.
    ///
    /// # Errors
    ///
    /// Fails if the blob does not exist or the backend errors.
    fn read_blob(&self, name: &str) -> Result<Bytes, Error>;

    /// Reads `len` bytes of the blob named `name` starting at byte
    /// `offset`. This is the primitive that makes lazy sstable readers
    /// possible: a point read fetches one footer, one index and one data
    /// block instead of the whole table. Only the requested range counts
    /// toward [`Storage::bytes_read`].
    ///
    /// # Errors
    ///
    /// Fails if the blob does not exist, the range extends past the end
    /// of the blob, or the backend errors.
    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error>;

    /// Length of the blob named `name` in bytes, answered from metadata.
    ///
    /// # Errors
    ///
    /// Fails if the blob does not exist or the backend errors.
    fn blob_len(&self, name: &str) -> Result<u64, Error>;

    /// Deletes the blob named `name`. Deleting a missing blob is not an
    /// error (idempotent). A failed call leaves the blob whole or gone.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn delete_blob(&self, name: &str) -> Result<(), Error>;

    /// Returns `true` if a blob named `name` exists.
    fn contains_blob(&self, name: &str) -> bool;

    /// Names of all blobs currently stored, in unspecified order.
    fn list_blobs(&self) -> Vec<String>;

    /// Total bytes written through this storage since creation.
    fn bytes_written(&self) -> u64;

    /// Total bytes read through this storage since creation.
    fn bytes_read(&self) -> u64;
}

/// The range `[offset, offset + len)` of a [`MemoryStorage`] blob of
/// `blob_len` bytes, range checked.
fn range_of(blob_len: usize, name: &str, offset: u64, len: usize) -> Result<Range<usize>, Error> {
    usize::try_from(offset)
        .ok()
        .and_then(|start| Some(start..start.checked_add(len)?))
        .filter(|range| range.end <= blob_len)
        .ok_or_else(|| {
            Error::corruption(format!(
                "range {offset}+{len} past end of blob `{name}` ({blob_len} bytes)"
            ))
        })
}

/// One stored blob of a [`MemoryStorage`]. `write_blob` stores a shared
/// immutable buffer, so reading a table or checkpoint back — whole or a
/// range of it — is a slice sharing that buffer; `append_blob` grows a
/// plain vector in place (amortised O(`data.len()`)), which only WAL
/// replay ever reads back.
#[derive(Debug)]
enum Blob {
    Whole(Bytes),
    Appended(Vec<u8>),
}

impl Blob {
    fn as_slice(&self) -> &[u8] {
        match self {
            Blob::Whole(bytes) => bytes,
            Blob::Appended(buf) => buf,
        }
    }

    /// `range` of the blob: shared for a whole blob, copied for an
    /// appended one.
    fn bytes(&self, range: Range<usize>) -> Bytes {
        match self {
            Blob::Whole(bytes) => bytes.slice(range),
            Blob::Appended(buf) => Bytes::copy_from_slice(&buf[range]),
        }
    }
}

/// In-memory storage backend (the simulator default).
#[derive(Debug, Default)]
pub struct MemoryStorage {
    blobs: RwLock<HashMap<String, Blob>>,
    written: AtomicU64,
    read: AtomicU64,
}

impl MemoryStorage {
    /// Creates an empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The error every read of a missing [`MemoryStorage`] blob returns.
fn not_found(name: &str) -> Error {
    Error::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("blob `{name}` not found"),
    ))
}

impl Storage for MemoryStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let blob = Blob::Whole(Bytes::copy_from_slice(data));
        self.blobs.write().insert(name.to_owned(), blob);
        Ok(())
    }

    fn append_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut blobs = self.blobs.write();
        match blobs.get_mut(name) {
            Some(Blob::Appended(buf)) => buf.extend_from_slice(data),
            Some(whole) => *whole = Blob::Appended([whole.as_slice(), data].concat()),
            None => {
                blobs.insert(name.to_owned(), Blob::Appended(data.to_vec()));
            }
        }
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Bytes, Error> {
        let guard = self.blobs.read();
        let blob = guard.get(name).ok_or_else(|| not_found(name))?;
        let len = blob.as_slice().len();
        self.read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(blob.bytes(0..len))
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error> {
        let guard = self.blobs.read();
        let blob = guard.get(name).ok_or_else(|| not_found(name))?;
        let range = range_of(blob.as_slice().len(), name, offset, len)?;
        self.read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(blob.bytes(range))
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        let guard = self.blobs.read();
        let blob = guard.get(name).ok_or_else(|| not_found(name))?;
        Ok(blob.as_slice().len() as u64)
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        self.blobs.write().remove(name);
        Ok(())
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.blobs.read().contains_key(name)
    }

    fn list_blobs(&self) -> Vec<String> {
        self.blobs.read().keys().cloned().collect()
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

/// File-backed storage: each blob is a file inside a root directory.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
    /// One open `O_APPEND` handle per appended blob (the live WAL
    /// segments), so an append is one `write` and one `fdatasync`.
    /// Dropped when the name is replaced or deleted: `write_blob`'s
    /// rename swaps the inode under the handle.
    appenders: Mutex<HashMap<String, fs::File>>,
    written: AtomicU64,
    read: AtomicU64,
}

impl FileStorage {
    /// Opens (creating if needed) a file-backed store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, Error> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            appenders: Mutex::new(HashMap::new()),
            written: AtomicU64::new(0),
            read: AtomicU64::new(0),
        })
    }

    fn path_for(&self, name: &str) -> PathBuf {
        // Blob names are generated internally (e.g. "sst-000042.sst") and
        // never contain path separators, but sanitize anyway.
        let safe: String = name
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        self.root.join(safe)
    }

    /// Makes a directory-entry change (a created or renamed blob)
    /// durable: without it the file's bytes are synced but its name can
    /// vanish on power loss after the write was acked.
    fn sync_dir(&self) -> Result<(), Error> {
        Ok(fs::File::open(&self.root)?.sync_all()?)
    }
}

impl Storage for FileStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let final_path = self.path_for(name);
        let tmp_path = self.path_for(&format!("{name}.tmp"));
        {
            let mut file = fs::File::create(&tmp_path)?;
            file.write_all(data)?;
            file.sync_all()?;
        }
        self.appenders.lock().remove(name);
        fs::rename(&tmp_path, &final_path)?;
        self.sync_dir()?;
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn append_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let mut appenders = self.appenders.lock();
        if !appenders.contains_key(name) {
            let path = self.path_for(name);
            let created = !path.exists();
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            if created {
                self.sync_dir()?;
            }
            appenders.insert(name.to_owned(), file);
        }
        let file = appenders.get_mut(name).expect("inserted above");
        file.write_all(data)?;
        file.sync_data()?;
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read_blob(&self, name: &str) -> Result<Bytes, Error> {
        let mut file = fs::File::open(self.path_for(name))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(Bytes::from(buf))
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error> {
        let mut file = fs::File::open(self.path_for(name))?;
        let total = file.metadata()?.len();
        if offset.checked_add(len as u64).is_none_or(|end| end > total) {
            return Err(Error::corruption(format!(
                "range {offset}+{len} past end of blob `{name}` ({total} bytes)"
            )));
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        self.read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(Bytes::from(buf))
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        Ok(fs::metadata(self.path_for(name))?.len())
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        self.appenders.lock().remove(name);
        match fs::remove_file(self.path_for(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.path_for(name).exists()
    }

    fn list_blobs(&self) -> Vec<String> {
        fs::read_dir(&self.root)
            .map(|dir| {
                dir.filter_map(|entry| {
                    let entry = entry.ok()?;
                    let name = entry.file_name().into_string().ok()?;
                    (!name.ends_with(".tmp")).then_some(name)
                })
                .collect()
            })
            .unwrap_or_default()
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn Storage) {
        assert!(!storage.contains_blob("a"));
        storage.write_blob("a", b"hello").unwrap();
        assert!(storage.contains_blob("a"));
        assert_eq!(storage.read_blob("a").unwrap().as_ref(), b"hello");
        storage.write_blob("a", b"replaced").unwrap();
        assert_eq!(storage.read_blob("a").unwrap().as_ref(), b"replaced");
        storage.write_blob("b", b"world").unwrap();
        let mut names = storage.list_blobs();
        names.sort();
        assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
        storage.delete_blob("a").unwrap();
        storage.delete_blob("a").unwrap(); // idempotent
        assert!(!storage.contains_blob("a"));
        assert!(storage.read_blob("a").is_err());
        assert!(storage.bytes_written() >= 18);
        assert!(storage.bytes_read() >= 13);

        // Ranged reads: exact slice, byte accounting, bounds checking.
        assert_eq!(storage.blob_len("b").unwrap(), 5);
        let before = storage.bytes_read();
        assert_eq!(storage.read_blob_range("b", 1, 3).unwrap().as_ref(), b"orl");
        assert_eq!(
            storage.bytes_read() - before,
            3,
            "only the range counts as read"
        );
        assert_eq!(
            storage.read_blob_range("b", 0, 5).unwrap().as_ref(),
            b"world"
        );
        assert_eq!(storage.read_blob_range("b", 5, 0).unwrap().as_ref(), b"");
        assert!(storage.read_blob_range("b", 4, 2).is_err(), "past the end");
        assert!(storage.read_blob_range("b", 6, 0).is_err());
        assert!(storage.read_blob_range("missing", 0, 1).is_err());
        assert!(storage.blob_len("missing").is_err());

        // Appends: create-if-absent, concatenation, exact byte accounting.
        assert!(!storage.contains_blob("log"));
        let before = storage.bytes_written();
        storage.append_blob("log", b"abc").unwrap();
        assert_eq!(storage.read_blob("log").unwrap().as_ref(), b"abc");
        storage.append_blob("log", b"defg").unwrap();
        assert_eq!(
            storage.bytes_written() - before,
            7,
            "only the appended bytes"
        );
        assert_eq!(storage.read_blob("log").unwrap().as_ref(), b"abcdefg");
        assert_eq!(storage.blob_len("log").unwrap(), 7);
        assert_eq!(
            storage.read_blob_range("log", 2, 4).unwrap().as_ref(),
            b"cdef"
        );
        assert!(storage.list_blobs().contains(&"log".to_owned()));
        // A replaced or deleted blob must not be reached through a stale
        // append handle: the append lands after the replacement / starts
        // the blob over.
        storage.write_blob("log", b"new").unwrap();
        storage.append_blob("log", b"+tail").unwrap();
        assert_eq!(storage.read_blob("log").unwrap().as_ref(), b"new+tail");
        storage.write_blob("log", b"").unwrap();
        storage.append_blob("log", b"x").unwrap();
        assert_eq!(storage.read_blob("log").unwrap().as_ref(), b"x");
        storage.delete_blob("log").unwrap();
        assert!(!storage.contains_blob("log"));
        storage.append_blob("log", b"fresh").unwrap();
        assert_eq!(storage.read_blob("log").unwrap().as_ref(), b"fresh");
        storage.append_blob("log", b"").unwrap();
        assert_eq!(storage.blob_len("log").unwrap(), 5);
    }

    #[test]
    fn memory_storage_contract() {
        let storage = MemoryStorage::new();
        exercise(&storage);
        // Reading a `write_blob`-written blob (every table), whole or a
        // range of it, shares the stored buffer instead of copying it.
        storage.write_blob("t", b"table").unwrap();
        let (a, b) = (
            storage.read_blob("t").unwrap(),
            storage.read_blob("t").unwrap(),
        );
        assert_eq!(a.as_ptr(), b.as_ptr());
        let range = storage.read_blob_range("t", 1, 3).unwrap();
        assert_eq!(range.as_ref(), b"abl");
        assert_eq!(range.as_ptr(), a[1..].as_ptr());
    }

    #[test]
    fn file_storage_contract() {
        let dir = std::env::temp_dir().join(format!("lsm-engine-test-{}", std::process::id()));
        let storage = FileStorage::open(&dir).unwrap();
        exercise(&storage);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_sanitizes_names() {
        let dir = std::env::temp_dir().join(format!("lsm-engine-test-sani-{}", std::process::id()));
        let storage = FileStorage::open(&dir).unwrap();
        storage.write_blob("../escape", b"x").unwrap();
        assert!(storage.contains_blob("../escape"));
        assert!(dir.join(".._escape").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
