//! The content-addressed scenario result cache.
//!
//! Results are keyed by [`CompiledScenario::content_hash`] — a stable
//! digest of everything that determines the output bytes (see
//! `scenario::hash`) — and stored one file per key as
//! `<dir>/<hash>.entry`. The CLI (`paper scenario`) and the serving daemon
//! (`paper serve`) share the directory, so whichever computes a result
//! first saves the other the simulation.
//!
//! An entry carries the scenario's *deterministic result document* (the
//! timing-free `results/scenario-<name>.json` bytes) plus the rendered
//! text report, stored raw: one ASCII header line
//!
//! ```text
//! paper-cache <version> <16-hex key> <scenario bytes> <rendered bytes> <document bytes>
//! ```
//!
//! then the scenario name, the report and the document, verbatim and
//! back to back. A lookup reads the file and slices it — nothing is
//! escaped, so nothing is parsed or unescaped. It checks the magic word,
//! the version, that the header names the key asked for (a file copied
//! under another key's name is not that key's result) and that the three
//! lengths cover exactly the body on char boundaries; an entry failing
//! any check reads as a miss. Writes go to a temporary file in the same
//! directory and land via `rename`, so a crash, a full disk, or two
//! writers racing on the same hash can never leave a torn entry — a
//! reader sees the old entry, the new entry, or nothing.
//!
//! [`CompiledScenario::content_hash`]: scenario::CompiledScenario::content_hash

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::profile::{self, Stage};

/// Entry format version, the second word of every entry's header. Bump it
/// whenever the bytes [`ResultCache::store`] writes change layout or
/// meaning: an entry of any other version then reads as a miss and is
/// recomputed, never misread. (Version 1 was a JSON envelope at
/// `<hash>.json`; a store of the same key removes that file.)
pub const CACHE_VERSION: u64 = 2;

/// First word of every entry's header.
const MAGIC: &str = "paper-cache";

/// One cached scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Scenario name (diagnostics only; the hash is the identity).
    pub scenario: String,
    /// The rendered text report (what `paper scenario` prints).
    pub rendered: String,
    /// The deterministic result document — the exact bytes the daemon
    /// returns and `--json --no-timing` writes, trailing newline included.
    pub document: String,
}

/// Hit/miss totals shared by every clone of one [`ResultCache`] (the
/// daemon clones its cache across connection handlers; the counts must
/// aggregate, not fork).
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A content-addressed store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    counters: Arc<CacheCounters>,
}

impl ResultCache {
    /// Cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// Lifetime `(hits, misses)` across this cache and all its clones.
    /// Corrupt entries count as misses — that is what the caller saw.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.counters.hits.load(Ordering::Relaxed),
            self.counters.misses.load(Ordering::Relaxed),
        )
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `hash`.
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir
            .join(format!("{}.entry", scenario::hash::hex(hash)))
    }

    /// Look up `hash`. `None` on a miss; a present entry that fails a
    /// check (corrupt, another version, another key's) also reads as a miss
    /// (and is reported) rather than poisoning the run — the simulation is
    /// always a safe fallback.
    pub fn lookup(&self, hash: u64) -> Option<CacheEntry> {
        let timer = profile::start(Stage::CacheLookup);
        let found = self.lookup_inner(hash);
        timer.stop();
        match found.is_some() {
            true => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            false => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn lookup_inner(&self, hash: u64) -> Option<CacheEntry> {
        let path = self.entry_path(hash);
        let bytes = std::fs::read(&path).ok()?;
        match decode(&bytes, hash) {
            Ok(entry) => Some(entry),
            Err(error) => {
                eprintln!("[cache: ignoring entry {}: {error}]", path.display());
                None
            }
        }
    }

    /// Store `entry` under `hash` atomically (write-to-temp + rename), then
    /// remove the key's superseded version-1 `<hash>.json` file if one is
    /// there (best effort). Returns the entry's final path.
    pub fn store(&self, hash: u64, entry: &CacheEntry) -> std::io::Result<PathBuf> {
        let timer = profile::start(Stage::CacheStore);
        let result = self.store_inner(hash, entry);
        timer.stop();
        result
    }

    fn store_inner(&self, hash: u64, entry: &CacheEntry) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let key = scenario::hash::hex(hash);
        let path = self.entry_path(hash);
        // The temp name carries the pid so two processes storing the same
        // hash never clobber each other's in-flight temp file; both
        // renames land a complete entry with identical bytes.
        let tmp = self.dir.join(format!(".tmp-{key}-{}", std::process::id()));
        std::fs::write(&tmp, encode(&key, entry))?;
        if let Err(error) = std::fs::rename(&tmp, &path) {
            // Never leave the temp file behind on a failed landing.
            let _ = std::fs::remove_file(&tmp);
            return Err(error);
        }
        let _ = std::fs::remove_file(self.dir.join(format!("{key}.json")));
        Ok(path)
    }
}

/// An entry's bytes: the header line, then the three sections verbatim.
fn encode(key: &str, entry: &CacheEntry) -> Vec<u8> {
    let sections = [&entry.scenario, &entry.rendered, &entry.document];
    let [scenario, rendered, document] = sections.map(|s| s.len());
    let header = format!("{MAGIC} {CACHE_VERSION} {key} {scenario} {rendered} {document}\n");
    let mut bytes = Vec::with_capacity(header.len() + scenario + rendered + document);
    bytes.extend_from_slice(header.as_bytes());
    for section in sections {
        bytes.extend_from_slice(section.as_bytes());
    }
    bytes
}

/// Slice an entry's bytes back into its sections, checking everything the
/// header claims: the magic word, [`CACHE_VERSION`], that the key is
/// `hash`, and that the lengths cover exactly the body on char boundaries.
fn decode(bytes: &[u8], hash: u64) -> Result<CacheEntry, String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("no header line")?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| "header is not UTF-8")?;
    let body = std::str::from_utf8(&bytes[newline + 1..])
        .map_err(|e| format!("body is not UTF-8: {e}"))?;
    let words: Vec<&str> = header.split(' ').collect();
    let [magic, version, key, scenario, rendered, document] = words[..] else {
        return Err(format!("header has {} words, expected six", words.len()));
    };
    if magic != MAGIC {
        return Err(format!("magic word '{magic}', expected '{MAGIC}'"));
    }
    if decimal::<u64>(version) != Some(CACHE_VERSION) {
        return Err(format!("version '{version}', expected {CACHE_VERSION}"));
    }
    let expected = scenario::hash::hex(hash);
    if key != expected {
        return Err(format!("entry is for key {key}, not {expected}"));
    }
    let length = |field: &str| decimal::<usize>(field).ok_or(format!("bad length '{field}'"));
    let (scenario, rendered, document) = (length(scenario)?, length(rendered)?, length(document)?);
    let rendered_end = scenario
        .checked_add(rendered)
        .filter(|&end| end.checked_add(document) == Some(body.len()))
        .ok_or_else(|| {
            format!(
                "section lengths do not add up to the {} body bytes",
                body.len()
            )
        })?;
    let section = |range: std::ops::Range<usize>| {
        body.get(range)
            .map(str::to_string)
            .ok_or("a section length splits a character")
    };
    Ok(CacheEntry {
        scenario: section(0..scenario)?,
        rendered: section(scenario..rendered_end)?,
        document: section(rendered_end..body.len())?,
    })
}

/// A header number: ASCII digits only (no sign, no space), in range.
fn decimal<T: FromStr>(field: &str) -> Option<T> {
    let digits = !field.is_empty() && field.bytes().all(|b| b.is_ascii_digit());
    if digits {
        field.parse().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nego-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> CacheEntry {
        CacheEntry {
            scenario: "smoke".into(),
            rendered: "# Scenario 'smoke'\nline two\n".into(),
            document: "{\n  \"schema_version\": 1\n}\n".into(),
        }
    }

    #[test]
    fn store_then_lookup_round_trips_exact_bytes() {
        let cache = ResultCache::new(tmp_dir("roundtrip"));
        let hash = 0xDEAD_BEEF_u64;
        assert_eq!(cache.lookup(hash), None, "fresh dir misses");
        let path = cache.store(hash, &entry()).unwrap();
        assert_eq!(path, cache.entry_path(hash));
        assert!(path.ends_with("00000000deadbeef.entry"), "{path:?}");
        let back = cache.lookup(hash).expect("hit");
        assert_eq!(back, entry());
        // Distinct hashes stay distinct.
        assert_eq!(cache.lookup(hash + 1), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = ResultCache::new(tmp_dir("corrupt"));
        let hash = 7u64;
        cache.store(hash, &entry()).unwrap();
        std::fs::write(cache.entry_path(hash), "{\"cache_version\": 1, trunc").unwrap();
        assert_eq!(cache.lookup(hash), None);
        // A wrong version is a miss too, not a crash.
        std::fs::write(cache.entry_path(hash), "{\"cache_version\": 99}").unwrap();
        assert_eq!(cache.lookup(hash), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_count_hits_and_misses_across_clones() {
        let cache = ResultCache::new(tmp_dir("stats"));
        assert_eq!(cache.stats(), (0, 0));
        cache.lookup(11); // miss
        cache.store(11, &entry()).unwrap();
        let clone = cache.clone();
        clone.lookup(11); // hit, seen by both
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(clone.stats(), (1, 1));
        // Corrupt entries count as misses.
        std::fs::write(cache.entry_path(11), "garbage").unwrap();
        assert_eq!(cache.lookup(11), None);
        assert_eq!(cache.stats(), (1, 2));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn no_temp_files_survive_a_store() {
        let cache = ResultCache::new(tmp_dir("tmpfiles"));
        cache.store(1, &entry()).unwrap();
        cache.store(2, &entry()).unwrap();
        let stray: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The bytes `store` writes for `entry()` under `hash`.
    fn stored_bytes(hash: u64) -> Vec<u8> {
        encode(&scenario::hash::hex(hash), &entry())
    }

    #[test]
    fn an_entry_filed_under_another_key_is_a_miss() {
        let cache = ResultCache::new(tmp_dir("wrongkey"));
        let (a, b) = (0xA, 0xB);
        cache.store(a, &entry()).unwrap();
        std::fs::copy(cache.entry_path(a), cache.entry_path(b)).unwrap();
        assert_eq!(cache.lookup(b), None, "A's result must not answer B");
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.lookup(a), Some(entry()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn malformed_entries_are_counted_misses() {
        let hash = 0x5EED_u64;
        let key = scenario::hash::hex(hash);
        let good = stored_bytes(hash);
        let body_at = good.iter().position(|&b| b == b'\n').unwrap() + 1;
        let body = &good[body_at..];
        let e = entry();
        let (s, r, d) = (e.scenario.len(), e.rendered.len(), e.document.len());
        let raw = |header: String, body: &[u8]| [header.as_bytes(), body].concat();
        // A v1 envelope, written the way version 1 wrote it.
        let mut v1 = metrics::Json::object();
        v1.push("cache_version", 1u64)
            .push("hash", key.as_str())
            .push("scenario", e.scenario.as_str())
            .push("rendered", e.rendered.as_str())
            .push("document", e.document.as_str());
        let mut non_utf8 = good.clone();
        non_utf8[body_at + s] = 0xFF;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty file", Vec::new()),
            ("truncated body", good[..good.len() - 1].to_vec()),
            ("trailing bytes", [&good[..], b"x"].concat()),
            (
                "lengths exceed the body",
                raw(format!("paper-cache 2 {key} {s} {r} {}\n", d + 1), body),
            ),
            (
                "lengths fall short of the body",
                raw(format!("paper-cache 2 {key} {s} {} {d}\n", r - 1), body),
            ),
            (
                "length overflows usize",
                raw(
                    format!("paper-cache 2 {key} {s} {r} 1{}\n", usize::MAX),
                    body,
                ),
            ),
            (
                "lengths overflow usize when summed",
                raw(format!("paper-cache 2 {key} {} 2 {d}\n", usize::MAX), body),
            ),
            (
                "signed length",
                raw(format!("paper-cache 2 {key} +{s} {r} {d}\n"), body),
            ),
            (
                "length splits a multi-byte char",
                raw(format!("paper-cache 2 {key} 1 1 0\n"), "é".as_bytes()),
            ),
            ("non-UTF-8 byte", non_utf8),
            (
                "wrong magic word",
                raw(format!("paper-cachf 2 {key} {s} {r} {d}\n"), body),
            ),
            (
                "version 1",
                raw(format!("paper-cache 1 {key} {s} {r} {d}\n"), body),
            ),
            (
                "version 3",
                raw(format!("paper-cache 3 {key} {s} {r} {d}\n"), body),
            ),
            (
                "missing newline",
                format!("paper-cache 2 {key} 0 0 0").into_bytes(),
            ),
            (
                "seven header words",
                raw(format!("paper-cache 2 {key} {s} {r} {d} 0\n"), body),
            ),
            ("v1 JSON envelope", (v1.render() + "\n").into_bytes()),
        ];
        let cache = ResultCache::new(tmp_dir("malformed"));
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.entry_path(hash), &good).unwrap();
        assert_eq!(
            cache.lookup(hash),
            Some(entry()),
            "the unmutated entry hits"
        );
        for (misses, (case, bytes)) in (1..).zip(cases) {
            std::fs::write(cache.entry_path(hash), bytes).unwrap();
            assert_eq!(cache.lookup(hash), None, "{case}");
            assert_eq!(cache.stats(), (1, misses), "{case}");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn awkward_sections_round_trip_exact_bytes() {
        let cache = ResultCache::new(tmp_dir("awkward"));
        let hash = 3u64;
        let header_lookalike = format!("paper-cache 2 {} 0 0 0\n", scenario::hash::hex(hash));
        let awkward = [
            CacheEntry {
                scenario: String::new(),
                rendered: format!("{header_lookalike}quote \" backslash \\ tab\t\n"),
                document: "{\n  \"name\": \"ünïcødé ✓ 🚀\\n\"\n}\n".into(),
            },
            CacheEntry {
                scenario: "naïve\nname".into(),
                rendered: String::new(),
                document: String::new(),
            },
        ];
        for entry in awkward {
            let path = cache.store(hash, &entry).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(bytes.ends_with(entry.document.as_bytes()));
            assert_eq!(cache.lookup(hash).as_ref(), Some(&entry));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_retires_the_keys_v1_file_only() {
        let cache = ResultCache::new(tmp_dir("retire"));
        std::fs::create_dir_all(cache.dir()).unwrap();
        let v1 = |hash: u64| {
            cache
                .dir()
                .join(format!("{}.json", scenario::hash::hex(hash)))
        };
        std::fs::write(v1(21), "{\"cache_version\": 1}\n").unwrap();
        std::fs::write(v1(22), "{\"cache_version\": 1}\n").unwrap();
        cache.store(21, &entry()).unwrap();
        assert!(!v1(21).exists(), "the superseded file goes");
        assert!(v1(22).exists(), "another key's file stays");
        // Removal is best effort: one that fails leaves the store standing.
        std::fs::create_dir_all(v1(23)).unwrap();
        cache.store(23, &entry()).unwrap();
        assert_eq!(cache.lookup(23), Some(entry()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
