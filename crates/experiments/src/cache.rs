//! Content-addressed on-disk cache of completed runs.
//!
//! A run is fully determined by its [`Scenario`] and replication index
//! (the simulation is deterministic given its derived seed), so its
//! [`RunSummary`] can be addressed by *content*: the cache key is a
//! stable 64-bit hash over the canonical JSON of the scenario plus the
//! replication index, its derived seed, and a schema tag. Re-running an
//! unchanged figure then costs one record read per replication instead
//! of a simulation.
//!
//! Keying rules:
//!
//! * **Every** result-influencing scenario field is in the canonical
//!   JSON (`Scenario::to_json` serializes all fields; an exhaustiveness
//!   test breaks when a new field is added unserialized).
//! * [`CACHE_SCHEMA_VERSION`] must be bumped whenever the *meaning* of
//!   a cached entry changes: a `RunSummary` field is added/removed/
//!   reinterpreted, simulation semantics change intentionally (i.e.
//!   whenever goldens are regenerated), or the key derivation itself
//!   changes. The log's file name carries the version, so a bump starts
//!   a new log and the old one is never read again (there is no
//!   eviction — records are a few hundred bytes and campaigns are
//!   finite).
//! * A corrupted, truncated, or unparseable entry is a **miss**, never
//!   an error: the run is recomputed and a fresh record appended.
//!
//! # Storage: one append-only log
//!
//! A cache directory holds one log, `runs-v{CACHE_SCHEMA_VERSION}.log`.
//! Each [`RunCache::store`] appends one newline-terminated record
//!
//! ```text
//! <key:016x> <sum:016x> <compact RunSummary JSON>\n
//! ```
//!
//! where `sum` is [`StableHasher`] over the key (little-endian) and the
//! JSON bytes. Compact JSON escapes control characters, so the final
//! byte is the record's only newline.
//!
//! * **Index.** [`RunCache::lookup`] answers from an in-memory
//!   `key → (offset, len, sum)` index shared by every clone of a
//!   handle. It is built lazily: a probe for a key the index does not
//!   hold reads only the bytes appended since the last scan, so records
//!   appended by other handles and other processes become visible.
//!   Payloads are never held in memory: a hit re-reads its record
//!   through a retained read handle and re-verifies the checksum, so rot
//!   that appears after indexing is still caught.
//! * **Newest valid wins.** A record with a bad checksum or header is
//!   skipped (its key reads [`Lookup::Corrupt`] until a valid record
//!   appears); among valid records for one key the one furthest into
//!   the log wins, so recomputing an entry heals rot. A valid record
//!   whose JSON does not parse as a [`RunSummary`] also reads `Corrupt`.
//! * **Torn writes.** A record goes out as one `write_all` on an
//!   `O_APPEND` handle opened once per cache handle. A crash mid-append
//!   leaves a tail without its newline, which scans leave alone; before
//!   its first append a writer ends such a tail with `\n`, so the crash
//!   loses only the torn record.
//! * **Concurrent appends.** On local filesystems one `O_APPEND` write
//!   lands whole and never interleaves with another, so threads and
//!   processes may share a cache directory. Two writers of one key
//!   append the same bytes twice, which is harmless. Filesystems
//!   without atomic append (NFS) are not supported.
//! * **Older layout.** Builds before the log wrote one
//!   `{key:016x}.json` file per entry. Those files are ignored; the
//!   first pass over them runs cold and fills the log.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::runner::replication_seed;
use crate::scenario::Scenario;
use vmprov_cloudsim::RunSummary;
use vmprov_des::StableHasher;
use vmprov_json::{FromJson, Json, ToJson};

/// Bump on any change to run semantics, `RunSummary` layout, or key
/// derivation (see the module docs for the checklist).
///
/// v2: `Scenario` gained the `sampler` field (variate-sampler backend),
/// which enters the canonical JSON and therefore every key.
///
/// v3: `Scenario` gained the `shards` field (intra-run shard count).
/// Serial entries are unchanged in meaning, but the canonical JSON now
/// carries a `shards` member, so every key moves; sharded cells hash
/// distinctly from serial ones because the sharded stream is its own
/// deterministic semantics.
///
/// v4: `Scenario` gained the `analyzer` (rate-estimator spec) and
/// `trace` (streamed trace replay) fields. Replay entries key on the
/// trace's *content hash* — never its path or chunk size — so two
/// copies of one trace share entries while an edited trace can never
/// alias the old one.
///
/// v5: `Scenario` gained the `arrival_run` field (arrival-burst
/// prefetch depth). The default of 1 leaves run semantics untouched
/// (the scalar path stays golden-identical), but depths above 1 are a
/// different event-id interleaving on workloads whose arrivals tie
/// control ticks exactly, so batched cells must hash apart.
///
/// v6: `Scenario` gained a per-request stats-sink field. The streaming
/// default stayed golden-identical, but the batched sink folded samples
/// in a different float order, so its cells had to hash apart — and
/// every key moved because the canonical JSON carried the new member.
///
/// v7: `Scenario` lost its variate-sampler and stats-sink fields (one
/// implementation of each remains), so their two members leave the
/// canonical JSON; results are unchanged, but every key moves and warm
/// v6 caches miss cleanly instead of aliasing.
pub const CACHE_SCHEMA_VERSION: u32 = 7;

/// Computes the content-addressed cache key of `(scenario, rep)`.
pub fn run_key(scenario: &Scenario, rep: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write(b"vmprov-run-cache");
    h.write_u32(CACHE_SCHEMA_VERSION);
    h.write(scenario.to_json().to_string_canonical().as_bytes());
    h.write_u32(rep);
    // The derived seed is implied by (scenario.seed, rep), but hashing
    // it too means a future change to the derivation function cannot
    // silently alias old entries.
    h.write_u64(replication_seed(scenario.seed, rep));
    h.finish()
}

/// Result of a cache probe, kept three-valued so campaign statistics
/// can distinguish "never ran" from "entry rotted".
#[derive(Debug)]
pub enum Lookup {
    /// A valid entry was found.
    Hit(Box<RunSummary>),
    /// No record for the key (or no readable log).
    Miss,
    /// The key's records are unreadable or corrupt; treated as a miss
    /// (the run is recomputed and a fresh record appended).
    Corrupt,
}

/// Bytes before a record's payload: `<key:016x> <sum:016x> `.
const HEADER_LEN: usize = 34;

/// Where one valid record sits in the log (its newline included).
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: u64,
    sum: u64,
}

/// What the log holds for one key.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The newest valid record.
    Valid(Slot),
    /// Only records that failed their checksum.
    Rotten,
}

/// The record checksum: [`StableHasher`] over the key and the payload.
fn record_sum(key: u64, payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(key);
    h.write(payload);
    h.finish()
}

/// Splits a record line (newline stripped) into key, stored checksum
/// and payload; `None` when the header is malformed.
fn split_record(body: &[u8]) -> Option<(u64, u64, &[u8])> {
    if body.len() < HEADER_LEN || body[16] != b' ' || body[33] != b' ' {
        return None;
    }
    let hex = |bytes: &[u8]| {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
    };
    Some((hex(&body[..16])?, hex(&body[17..33])?, &body[HEADER_LEN..]))
}

/// The shared state behind every clone of one [`RunCache`].
#[derive(Debug)]
struct Log {
    path: PathBuf,
    index: HashMap<u64, Entry>,
    /// Log bytes consumed into the index; always a record boundary.
    scanned: u64,
    /// Read handle, opened once the log exists.
    reader: Option<File>,
    /// `O_APPEND` handle, opened by the first store.
    writer: Option<File>,
}

impl Log {
    fn reader(&mut self) -> io::Result<&File> {
        if self.reader.is_none() {
            self.reader = Some(File::open(&self.path)?);
        }
        Ok(self.reader.as_ref().expect("opened above"))
    }

    /// Indexes the complete records appended since the last scan; a
    /// tail without its newline (torn, or still being written) is left
    /// for a later scan.
    fn refresh(&mut self) -> io::Result<()> {
        self.reader()?;
        let mut file = self.reader.as_ref().expect("opened by reader()");
        let len = file.metadata()?.len();
        if len < self.scanned {
            // Truncated under this handle: every slot is suspect.
            self.index.clear();
            self.scanned = 0;
        }
        if len == self.scanned {
            return Ok(());
        }
        file.seek(SeekFrom::Start(self.scanned))?;
        let mut records = BufReader::with_capacity(1 << 16, file);
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = records.read_until(b'\n', &mut line)?;
            let Some(body) = line.strip_suffix(b"\n") else {
                break;
            };
            // A line without a header (e.g. the empty line a torn-tail
            // repair can leave) names no key.
            if let Some((key, sum, payload)) = split_record(body) {
                if record_sum(key, payload) == sum {
                    let slot = Slot {
                        offset: self.scanned,
                        len: n as u64,
                        sum,
                    };
                    self.index.insert(key, Entry::Valid(slot));
                } else {
                    self.index.entry(key).or_insert(Entry::Rotten);
                }
            }
            self.scanned += n as u64;
        }
        Ok(())
    }

    /// Re-reads and re-verifies the record at `slot`.
    fn read(&mut self, key: u64, slot: Slot) -> Option<RunSummary> {
        let mut file = self.reader().ok()?;
        let mut line = vec![0; usize::try_from(slot.len).ok()?];
        file.seek(SeekFrom::Start(slot.offset)).ok()?;
        file.read_exact(&mut line).ok()?;
        let (k, _, payload) = split_record(line.strip_suffix(b"\n")?)?;
        if k != key || record_sum(key, payload) != slot.sum {
            return None;
        }
        let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
        RunSummary::from_json(&json).ok()
    }

    /// The append handle; on first use it ends a torn tail with `\n`
    /// so this writer's records start on a line of their own.
    fn writer(&mut self) -> io::Result<&File> {
        if self.writer.is_none() {
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&self.path)?;
            let len = file.metadata()?.len();
            if len > 0 {
                let mut last = [0u8];
                file.seek(SeekFrom::Start(len - 1))?;
                file.read_exact(&mut last)?;
                if last[0] != b'\n' {
                    file.write_all(b"\n")?;
                }
            }
            self.writer = Some(file);
        }
        Ok(self.writer.as_ref().expect("opened above"))
    }
}

/// A directory holding one append-only log of run summaries. Clones
/// share one index and one pair of file handles.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
    log: Arc<Mutex<Log>>,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`. The log
    /// itself is created by the first store.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RunCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let log = Log {
            path: dir.join(format!("runs-v{CACHE_SCHEMA_VERSION}.log")),
            index: HashMap::new(),
            scanned: 0,
            reader: None,
            writer: None,
        };
        Ok(RunCache {
            dir,
            log: Arc::new(Mutex::new(log)),
        })
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the log (which exists once something was stored).
    pub fn log_path(&self) -> PathBuf {
        self.lock().path.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        // The log's state stays consistent across a panic (every
        // mutation is a single insert or counter store).
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probes the cache for `key`.
    pub fn lookup(&self, key: u64) -> Lookup {
        let mut log = self.lock();
        if !matches!(log.index.get(&key), Some(Entry::Valid(_))) {
            // Not (validly) indexed yet: pick up what other handles
            // appended. An absent or unreadable log adds nothing.
            let _ = log.refresh();
        }
        match log.index.get(&key).copied() {
            None => Lookup::Miss,
            Some(Entry::Rotten) => Lookup::Corrupt,
            Some(Entry::Valid(slot)) => match log.read(key, slot) {
                Some(summary) => Lookup::Hit(Box::new(summary)),
                None => Lookup::Corrupt,
            },
        }
    }

    /// Appends `summary` as the newest record for `key`. Storing a key
    /// twice is harmless: every writer computes the same bytes for it.
    pub fn store(&self, key: u64, summary: &RunSummary) -> io::Result<()> {
        let json = summary.to_json().to_string_compact();
        let sum = record_sum(key, json.as_bytes());
        let record = format!("{key:016x} {sum:016x} {json}\n");
        let mut log = self.lock();
        let appended = log.writer().and_then(|mut w| {
            w.write_all(record.as_bytes())?;
            // O_APPEND leaves the position at the end of this record,
            // wherever other appenders put it.
            w.stream_position()
        });
        match appended {
            Ok(end) => {
                let len = record.len() as u64;
                let slot = Slot {
                    offset: end - len,
                    len,
                    sum,
                };
                log.index.insert(key, Entry::Valid(slot));
                Ok(())
            }
            Err(e) => {
                // A failed append may have left a torn tail: the next
                // store reopens, and so repairs it first.
                log.writer = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use crate::scenario::PolicySpec;
    use vmprov_des::SimTime;

    fn tiny() -> Scenario {
        Scenario::web(PolicySpec::Static(5), 31).with_horizon(SimTime::from_secs(60.0))
    }

    fn tmp_cache(tag: &str) -> RunCache {
        let dir =
            std::env::temp_dir().join(format!("vmprov_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::open(dir).expect("cache dir")
    }

    #[test]
    fn store_then_lookup_roundtrips_bit_identically() {
        let cache = tmp_cache("roundtrip");
        let s = tiny();
        let fresh = run_once(&s, 0);
        let key = run_key(&s, 0);
        assert!(matches!(cache.lookup(key), Lookup::Miss));
        cache.store(key, &fresh).expect("store");
        match cache.lookup(key) {
            Lookup::Hit(cached) => assert_eq!(*cached, fresh),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A well-formed record (valid checksum) around any payload.
    fn record(key: u64, payload: &str) -> String {
        format!(
            "{key:016x} {:016x} {payload}\n",
            record_sum(key, payload.as_bytes())
        )
    }

    fn append(cache: &RunCache, bytes: &[u8]) {
        let mut log = OpenOptions::new()
            .append(true)
            .create(true)
            .open(cache.log_path())
            .unwrap();
        log.write_all(bytes).unwrap();
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses_not_errors() {
        let cache = tmp_cache("corrupt");
        let s = tiny();
        let key = run_key(&s, 0);
        // Garbage under the key's header: bad checksum.
        append(
            &cache,
            format!("{key:016x} {:016x} {{not json\n", 7).as_bytes(),
        );
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Valid checksum, but not JSON.
        append(&cache, record(key, "{not json").as_bytes());
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Valid JSON, wrong shape.
        append(&cache, record(key, "{\"policy\": 3}").as_bytes());
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Recovery: a store over the rot yields a hit again.
        let fresh = run_once(&s, 0);
        cache.store(key, &fresh).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Hit(_)));
        // Later rot does not shadow the valid record: neither a record
        // with a bad checksum nor one without its newline (a torn write).
        let full = record(key, &fresh.to_json().to_string_compact());
        let mut rotten = full.clone().into_bytes();
        rotten[HEADER_LEN + 1] ^= 0x01;
        append(&cache, &rotten);
        append(&cache, &full.as_bytes()[..full.len() / 2]);
        let reopened = RunCache::open(cache.dir()).unwrap();
        assert!(matches!(reopened.lookup(key), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_appends_one_record_line() {
        let cache = tmp_cache("format");
        let fresh = run_once(&tiny(), 0);
        cache.store(0xabc, &fresh).unwrap();
        let text = std::fs::read_to_string(cache.log_path()).unwrap();
        assert_eq!(text, record(0xabc, &fresh.to_json().to_string_compact()));
        assert!(cache
            .log_path()
            .ends_with(format!("runs-v{CACHE_SCHEMA_VERSION}.log")));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_last_record_misses_until_restored() {
        let cache = tmp_cache("truncated");
        let fresh = run_once(&tiny(), 0);
        for key in 1..=3 {
            cache.store(key, &fresh).unwrap();
        }
        let log = cache.log_path();
        let len = std::fs::metadata(&log).unwrap().len();
        File::options()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        // A fresh handle stands in for the next process after a crash.
        let after = RunCache::open(cache.dir()).unwrap();
        assert!(matches!(after.lookup(3), Lookup::Miss));
        for key in 1..=2 {
            match after.lookup(key) {
                Lookup::Hit(hit) => assert_eq!(*hit, fresh),
                other => panic!("key {key}: expected hit, got {other:?}"),
            }
        }
        after.store(3, &fresh).unwrap();
        assert!(matches!(after.lookup(3), Lookup::Hit(_)));
        let again = RunCache::open(cache.dir()).unwrap();
        for key in 1..=3 {
            assert!(matches!(again.lookup(key), Lookup::Hit(_)), "key {key}");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_log_truncated_under_a_handle_is_rescanned() {
        let cache = tmp_cache("rescan");
        let fresh = run_once(&tiny(), 0);
        for key in 1..=3 {
            cache.store(key, &fresh).unwrap();
        }
        let reader = RunCache::open(cache.dir()).unwrap();
        assert!(matches!(reader.lookup(1), Lookup::Hit(_)));
        // Emptied behind both handles, then refilled by a third.
        File::create(cache.log_path()).unwrap();
        RunCache::open(cache.dir())
            .unwrap()
            .store(4, &fresh)
            .unwrap();
        assert!(matches!(reader.lookup(4), Lookup::Hit(_)));
        assert!(!matches!(reader.lookup(2), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn rot_after_indexing_is_caught_at_read_time() {
        let cache = tmp_cache("late_rot");
        let fresh = run_once(&tiny(), 0);
        cache.store(5, &fresh).unwrap();
        assert!(matches!(cache.lookup(5), Lookup::Hit(_)));
        // Flip a payload byte behind the handle's back; its index still
        // points at the record. Turning one inner digit into another
        // keeps the JSON a valid summary, so only the checksum sees it.
        let log = cache.log_path();
        let mut bytes = std::fs::read(&log).unwrap();
        let at = (HEADER_LEN + 1..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit() && bytes[i - 1].is_ascii_digit())
            .expect("a number with two digits");
        bytes[at] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();
        assert!(matches!(cache.lookup(5), Lookup::Corrupt));
        cache.store(5, &fresh).unwrap();
        match cache.lookup(5) {
            Lookup::Hit(hit) => assert_eq!(*hit, fresh),
            other => panic!("expected hit after re-store, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let cache = tmp_cache("torn");
        let fresh = run_once(&tiny(), 0);
        cache.store(1, &fresh).unwrap();
        let torn = record(2, &fresh.to_json().to_string_compact());
        append(&cache, &torn.as_bytes()[..torn.len() - 40]);
        let writer = RunCache::open(cache.dir()).unwrap();
        writer.store(3, &fresh).unwrap();
        let reader = RunCache::open(cache.dir()).unwrap();
        assert!(matches!(reader.lookup(1), Lookup::Hit(_)));
        assert!(!matches!(reader.lookup(2), Lookup::Hit(_)));
        match reader.lookup(3) {
            Lookup::Hit(hit) => assert_eq!(*hit, fresh),
            other => panic!("record after a torn tail: got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn newest_valid_record_wins() {
        let cache = tmp_cache("newest");
        let older = run_once(&tiny(), 0);
        let newer = run_once(&tiny(), 1);
        assert_ne!(older, newer);
        // Open the log before another handle writes to it.
        assert!(matches!(cache.lookup(1), Lookup::Miss));
        let other = RunCache::open(cache.dir()).unwrap();
        other.store(9, &older).unwrap();
        cache.store(9, &newer).unwrap();
        // Probing an unknown key scans both records, the other
        // handle's (older) one first.
        assert!(matches!(cache.lookup(2), Lookup::Miss));
        for handle in [&cache, &RunCache::open(cache.dir()).unwrap()] {
            match handle.lookup(9) {
                Lookup::Hit(hit) => assert_eq!(*hit, newer),
                other => panic!("expected the newer record, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn per_entry_files_of_the_old_layout_are_ignored() {
        let cache = tmp_cache("legacy");
        let s = tiny();
        let key = run_key(&s, 0);
        let fresh = run_once(&s, 0);
        std::fs::write(
            cache.dir().join(format!("{key:016x}.json")),
            fresh.to_json().to_string_pretty(),
        )
        .unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Miss));
        cache.store(key, &fresh).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_depends_on_rep_and_seed() {
        let s = tiny();
        let k0 = run_key(&s, 0);
        assert_eq!(k0, run_key(&s, 0), "key must be stable");
        assert_ne!(k0, run_key(&s, 1));
        let mut reseeded = s.clone();
        reseeded.seed += 1;
        assert_ne!(k0, run_key(&reseeded, 0));
    }

    /// A warm cache keyed under schema v6 must miss cleanly after the
    /// v7 re-keying (the v6 canonical JSON also carried the `sampler`
    /// and `stats_mode` members), rather than replay stale summaries
    /// against the new key space.
    #[test]
    fn v6_keyed_entries_miss_under_v7() {
        let cache = tmp_cache("v6_rekey");
        let s = tiny();
        let fresh = run_once(&s, 0);
        let Json::Obj(mut members) = s.to_json() else {
            panic!("scenario JSON must be an object");
        };
        assert!(
            members
                .iter()
                .all(|(k, _)| k != "sampler" && k != "stats_mode"),
            "v7 JSON must not carry the removed members"
        );
        // Reconstruct the v6 key: old schema tag, canonical JSON plus
        // the two members every v6 binary wrote at their defaults.
        members.push(("sampler".to_string(), Json::from("inverse_cdf")));
        members.push(("stats_mode".to_string(), Json::from("streaming")));
        let mut h = StableHasher::new();
        h.write(b"vmprov-run-cache");
        h.write_u32(6);
        h.write(Json::Obj(members).to_string_canonical().as_bytes());
        h.write_u32(0);
        h.write_u64(replication_seed(s.seed, 0));
        let v6_key = h.finish();
        cache.store(v6_key, &fresh).expect("store");
        let v7_key = run_key(&s, 0);
        assert_ne!(v6_key, v7_key, "schema bump must move every key");
        assert!(
            matches!(cache.lookup(v7_key), Lookup::Miss),
            "a v6-keyed entry must not satisfy a v7 probe"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
