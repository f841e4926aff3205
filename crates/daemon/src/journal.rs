//! The crash-recovery epoch journal.
//!
//! The daemon's durable state is the workspace's file set plus the
//! epoch's adoption ledger (which store entries written under older
//! program hashes are still valid). Once per epoch — at startup and after
//! every accepted edit, before the edit is acknowledged — both are
//! written to `journal.bin` in the cache directory with the same
//! discipline as the store's entries: encode, checksum, write to a temp
//! file, `rename` into place. A SIGKILL between publishes therefore
//! leaves either the previous journal or the new one — never a torn
//! file — and a restart replays whichever epoch was last made durable;
//! the restored ledger and the persistent store then warm the rebuilt
//! session to the same findings a cold run of that workspace produces.
//!
//! Layout (all through the store's checked [`codec`](bootstrap_store::codec)):
//!
//! ```text
//! bytes  "BSAJRNL1"            length-prefixed magic
//! bytes  body                  length-prefixed, see below
//! u64    fxhash(body)          checksum
//!
//! body:  u32 version | u64 epoch | u32 file count
//!        (str name, str content) * count
//!        u64 program hash | u32 ledger count              (version 2 only)
//!        (u64 key, u64 entry program hash,
//!         u32 partition count, u64 partition * count) * ledger count
//! ```
//!
//! A version 1 journal (files only) still loads, with an empty ledger.
//! Any deviation — bad magic, bad checksum, truncation, trailing bytes,
//! unknown version — is a [`JournalError`]; the daemon logs it and
//! falls back to its seed workspace rather than serving from a corrupt
//! epoch.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use bootstrap_core::LedgerEntry;
use bootstrap_store::codec::{Reader, Writer};
use bootstrap_store::hash_bytes;

/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"BSAJRNL1";

/// Journal format version written by [`save`]; version 1 still loads.
pub const JOURNAL_VERSION: u32 = 2;

/// A decoded journal: the epoch sequence number, the workspace files,
/// and the epoch's adoption ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalState {
    /// Epoch sequence number at the time of the write.
    pub epoch: u64,
    /// Workspace file name → contents.
    pub files: BTreeMap<String, String>,
    /// The program hash the ledger is valid for (`0` with no ledger).
    pub program_hash: u64,
    /// The epoch's adoption ledger, sorted by key (empty from a version 1
    /// journal).
    pub ledger: Vec<LedgerEntry>,
}

/// Why a journal failed to load.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error other than "not found".
    Io(io::Error),
    /// The bytes are not a valid journal (bad magic/version/checksum,
    /// truncated, or trailing garbage).
    Corrupt(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Atomically writes a journal with an empty ledger: temp file in the
/// same directory, then `rename` over the target.
pub fn save(path: &Path, epoch: u64, files: &BTreeMap<String, String>) -> io::Result<()> {
    save_with_ledger(path, epoch, files, 0, &[])
}

/// Atomically writes the journal with the epoch's adoption ledger, valid
/// for the program whose hash is `program_hash`.
pub fn save_with_ledger(
    path: &Path,
    epoch: u64,
    files: &BTreeMap<String, String>,
    program_hash: u64,
    ledger: &[LedgerEntry],
) -> io::Result<()> {
    let count = |n: usize| u32::try_from(n).expect("journal counts fit u32");
    let mut body = Writer::new();
    body.u32(JOURNAL_VERSION);
    body.u64(epoch);
    body.u32(count(files.len()));
    for (name, content) in files {
        body.str(name);
        body.str(content);
    }
    body.u64(program_hash);
    body.u32(count(ledger.len()));
    for e in ledger {
        body.u64(e.key);
        body.u64(e.program_hash);
        body.u32(count(e.partitions.len()));
        for &p in &e.partitions {
            body.u64(p);
        }
    }
    let body = body.finish();
    let mut w = Writer::new();
    w.bytes(&JOURNAL_MAGIC);
    w.bytes(&body);
    w.u64(hash_bytes(&body));

    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, w.finish())?;
    fs::rename(&tmp, path)
}

/// Loads the journal. `Ok(None)` when the file does not exist; a
/// [`JournalError`] when it exists but cannot be trusted.
pub fn load(path: &Path) -> Result<Option<JournalState>, JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    let mut r = Reader::new(&bytes);
    let magic = r.bytes().map_err(|_| JournalError::Corrupt("magic"))?;
    if magic != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt("magic"));
    }
    let body = r.bytes().map_err(|_| JournalError::Corrupt("body"))?;
    let sum = r.u64().map_err(|_| JournalError::Corrupt("checksum"))?;
    if r.remaining() != 0 {
        return Err(JournalError::Corrupt("trailing bytes"));
    }
    if sum != hash_bytes(body) {
        return Err(JournalError::Corrupt("checksum mismatch"));
    }
    let mut b = Reader::new(body);
    let version = b.u32().map_err(|_| JournalError::Corrupt("version"))?;
    if version != 1 && version != JOURNAL_VERSION {
        return Err(JournalError::Corrupt("unknown version"));
    }
    let epoch = b.u64().map_err(|_| JournalError::Corrupt("epoch"))?;
    let count = b.u32().map_err(|_| JournalError::Corrupt("file count"))?;
    let mut files = BTreeMap::new();
    for _ in 0..count {
        let name = b.str().map_err(|_| JournalError::Corrupt("file name"))?;
        let content = b.str().map_err(|_| JournalError::Corrupt("file content"))?;
        files.insert(name.to_string(), content.to_string());
    }
    let (program_hash, ledger) = if version == 1 {
        (0, Vec::new())
    } else {
        read_ledger(&mut b).ok_or(JournalError::Corrupt("ledger"))?
    };
    if b.remaining() != 0 {
        return Err(JournalError::Corrupt("trailing body bytes"));
    }
    Ok(Some(JournalState {
        epoch,
        files,
        program_hash,
        ledger,
    }))
}

/// Reads the version 2 tail: the program hash and the ledger entries.
fn read_ledger(b: &mut Reader<'_>) -> Option<(u64, Vec<LedgerEntry>)> {
    let program_hash = b.u64().ok()?;
    let count = b.u32().ok()?;
    let mut ledger = Vec::new();
    for _ in 0..count {
        let key = b.u64().ok()?;
        let entry_hash = b.u64().ok()?;
        let n = b.u32().ok()?;
        let mut partitions = Vec::new();
        for _ in 0..n {
            partitions.push(b.u64().ok()?);
        }
        ledger.push(LedgerEntry {
            key,
            program_hash: entry_hash,
            partitions,
        });
    }
    Some((program_hash, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> BTreeMap<String, String> {
        [("a.c", "int a;"), ("b.c", "void main() { }")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn ledger() -> Vec<LedgerEntry> {
        vec![
            LedgerEntry {
                key: 3,
                program_hash: 0xabc,
                partitions: vec![1, 2],
            },
            LedgerEntry {
                key: 9,
                program_hash: 0xdef,
                partitions: vec![],
            },
        ]
    }

    #[test]
    fn roundtrips_and_missing_is_none() {
        let dir = std::env::temp_dir().join("bsa-journal-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("journal.bin");
        assert!(load(&path).unwrap().is_none());
        save(&path, 7, &files()).unwrap();
        let state = load(&path).unwrap().unwrap();
        assert_eq!(state.epoch, 7);
        assert_eq!(state.files, files());
        assert_eq!((state.program_hash, state.ledger.len()), (0, 0));
        // Overwrite with a later epoch; rename replaces atomically.
        save(&path, 8, &files()).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().epoch, 8);
        save_with_ledger(&path, 9, &files(), 0x77, &ledger()).unwrap();
        let state = load(&path).unwrap().unwrap();
        assert_eq!((state.epoch, state.program_hash), (9, 0x77));
        assert_eq!(state.ledger, ledger());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_journal_loads_with_an_empty_ledger() {
        let dir = std::env::temp_dir().join("bsa-journal-v1");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        // The version 1 layout, written by hand.
        let mut body = Writer::new();
        body.u32(1);
        body.u64(4);
        body.u32(files().len() as u32);
        for (name, content) in &files() {
            body.str(name);
            body.str(content);
        }
        let body = body.finish();
        let mut w = Writer::new();
        w.bytes(&JOURNAL_MAGIC);
        w.bytes(&body);
        w.u64(hash_bytes(&body));
        fs::write(&path, w.finish()).unwrap();
        let state = load(&path).unwrap().unwrap();
        assert_eq!(state.epoch, 4);
        assert_eq!(state.files, files());
        assert_eq!((state.program_hash, state.ledger.len()), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corruption_is_detected() {
        let dir = std::env::temp_dir().join("bsa-journal-corrupt");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("journal.bin");
        save_with_ledger(&path, 3, &files(), 0x55, &ledger()).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncations at every length.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(load(&path).is_err(), "prefix of {cut} bytes loaded");
        }
        // A single flipped byte anywhere must be caught (magic, body, or
        // checksum).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(load(&path).is_err(), "flip at byte {i} loaded");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        fs::write(&path, &long).unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
