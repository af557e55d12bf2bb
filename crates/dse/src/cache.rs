//! Point-level, sharded evaluation cache.
//!
//! PR 1's cache was keyed per *spec*: one CSV per sweep, so adding a
//! single axis value to a 1440-point sweep re-evaluated all 1440
//! points. This store is keyed per *point*:
//!
//! * **Key** — [`EvalCache::point_key`]: FNV-1a over the point's axis
//!   tuple (everything except its spec-local `index`), the
//!   hand-maintained [`crate::MODEL_VERSION`] tag, *and* the computed
//!   [`crate::model_fingerprint`] — so model drift invalidates
//!   automatically even when the tag was forgotten.
//! * **Layout** — one directory per `(MODEL_VERSION, fingerprint)`
//!   generation, holding [`SHARD_COUNT`] append-friendly CSV shards; a
//!   point lives in the shard named by the top nibble of its key.
//! * **Concurrency** — every append holds the shard's exclusive
//!   advisory file lock ([`std::fs::File::lock`]) for its whole
//!   critical section (torn-tail probe, header creation, row write),
//!   so concurrent writers — threads or processes — never interleave
//!   mid-line and a fresh shard gets exactly one header. The lock is
//!   released by the kernel even if the writer dies, and readers never
//!   lock (a reader racing an append sees either the old or the new
//!   tail, both parseable). Filesystems without lock support degrade
//!   to unlocked appends, which only concurrent writers notice.
//! * **Degradation** — a torn line, a duplicate or interior header, a
//!   corrupted shard, or a key mismatch (the stored axes no longer
//!   hash to the stored key) makes exactly the affected points misses;
//!   everything else keeps hitting.
//!
//! [`crate::sweep::SweepEngine::run`] partitions a spec into cached and
//! missing points through [`EvalCache::lookup`], evaluates only the
//! misses, and appends them back — overlapping or grown specs pay only
//! for their delta.
//!
//! **Storage exhaustion degrades, it does not kill.** An append that
//! fails with a *persistent* capacity error (ENOSPC, EROFS, quota,
//! permissions — see [`ng_fault::is_exhaustion`]) diverts its rows to
//! a per-process in-memory overlay instead of failing the run: this
//! process keeps hitting those points ([`EvalCache::lookup`] consults
//! the overlay after the disk shards), one stderr warning names the
//! condition, and the `store.degraded_appends` counter records every
//! diverted row. The results are lost when the process exits — the
//! next run simply re-evaluates them — which is strictly better than
//! failing a run that already computed its results.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

use crate::emit::{point_from_row, write_point_row};
use crate::obs_counters;
use crate::spec::DesignPoint;
use crate::sweep::EvaluatedPoint;
use crate::{model_fingerprint, MODEL_VERSION};

/// Number of shard files per cache generation (points are distributed
/// by the top nibble of their key).
pub const SHARD_COUNT: usize = 16;

/// Per-process in-memory overlay holding rows whose disk append hit a
/// persistent capacity error (ENOSPC/EROFS/quota). Keyed by
/// `(store dir, point key)` so two caches in one process — the normal
/// state of the test binary — never see each other's diverted rows.
/// Never pre-initialised: a healthy process pays one `OnceLock::get`
/// (a relaxed load) per overlay consult and no allocation.
static DEGRADED_OVERLAY: OnceLock<Mutex<HashMap<(PathBuf, u64), EvaluatedPoint>>> = OnceLock::new();

fn overlay_get(store_dir: &Path, key: u64) -> Option<EvaluatedPoint> {
    let map = DEGRADED_OVERLAY.get()?.lock().unwrap();
    map.get(&(store_dir.to_path_buf(), key)).copied()
}

fn overlay_insert(store_dir: &Path, rows: &[(u64, EvaluatedPoint)]) {
    let mut map = DEGRADED_OVERLAY.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
    for (key, point) in rows {
        map.insert((store_dir.to_path_buf(), *key), *point);
    }
}

/// Parse one shard file's text into `(key, point)` rows in file order
/// (callers collapse duplicates later-wins by inserting in order),
/// plus the count of skipped data lines. Comment, header and
/// torn/corrupt lines are skipped *wherever* they appear, and a row
/// whose stored axes no longer hash to its stated key is rejected
/// (guards against truncation splices and rows copied across
/// generations).
fn parse_shard_text(text: &str) -> (Vec<(u64, EvaluatedPoint)>, u64) {
    let mut rows = Vec::new();
    let mut skipped = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("key,") {
            continue;
        }
        let parsed = line
            .split_once(',')
            .and_then(|(key_hex, row)| {
                Some((u64::from_str_radix(key_hex, 16).ok()?, point_from_row(row).ok()?))
            })
            .filter(|(stated, point)| EvalCache::point_key(&point.point) == *stated);
        match parsed {
            Some(row) => rows.push(row),
            None => skipped += 1,
        }
    }
    (rows, skipped)
}

/// A directory of point-level evaluation results.
#[derive(Debug, Clone)]
pub struct EvalCache {
    dir: PathBuf,
}

impl EvalCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        EvalCache { dir: dir.into() }
    }

    /// The cache key of one design point under the current models: a
    /// hash of its axis tuple (not its spec-local index), the
    /// [`MODEL_VERSION`] tag and the computed model fingerprint.
    pub fn point_key(point: &DesignPoint) -> u64 {
        ng_neural::math::fnv1a64(&format!(
            "{MODEL_VERSION};{:016x};app={};enc={};px={};nfp={};clk={:016x};kb={};banks={};\
             eng={};mrows={};mcols={};lanes={};fifo={}",
            model_fingerprint(),
            crate::spec::app_slug(point.app),
            crate::spec::encoding_slug(point.encoding),
            point.pixels,
            point.nfp_units,
            point.clock_ghz.to_bits(),
            point.grid_sram_kb,
            point.grid_sram_banks,
            point.encoding_engines,
            point.mac_rows,
            point.mac_cols,
            point.lanes_per_engine,
            point.input_fifo_depth,
        ))
    }

    /// The generation directory all shards of the current model version
    /// live in. A model change (tag bump or fingerprint drift) lands in
    /// a fresh directory and the stale one is never read again.
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join(format!("{MODEL_VERSION}-{:016x}", model_fingerprint()))
    }

    /// The shard index a key lives in (its top nibble).
    pub fn shard_of(key: u64) -> usize {
        (key >> 60) as usize
    }

    /// The shard file a key lives in.
    pub fn shard_path(&self, key: u64) -> PathBuf {
        self.store_dir().join(format!("shard-{:x}.csv", Self::shard_of(key)))
    }

    /// Parse one shard into key → point, skipping comment, header and
    /// torn/corrupt lines (those points simply stay misses). Header
    /// lines are skipped *wherever* they appear — a duplicate or
    /// interior header left by a pre-locking writer race costs nothing
    /// rather than dropping the shard. A later duplicate of a key
    /// wins, matching append order.
    ///
    /// Skipped data lines are not free information loss: each one is a
    /// point that will silently re-evaluate, so they are counted into
    /// `cache.rows_skipped` (surfaced by `dse --cache-stats`).
    fn load_shard(&self, shard: usize) -> HashMap<u64, EvaluatedPoint> {
        let path = self.store_dir().join(format!("shard-{shard:x}.csv"));
        let Ok(text) = fs::read_to_string(&path) else {
            return HashMap::new();
        };
        let (rows, skipped) = parse_shard_text(&text);
        if skipped > 0 {
            obs_counters::cache_rows_skipped().add(skipped);
        }
        // Later duplicate of a key wins, matching append order.
        rows.into_iter().collect()
    }

    /// Look up every point of a sweep: `Some(result)` per hit (with the
    /// point's *current* spec index, not the index it was stored
    /// under), `None` per miss. Only the CSV shards the keys land in
    /// are read.
    pub fn lookup(&self, points: &[DesignPoint]) -> Vec<Option<EvaluatedPoint>> {
        let keys: Vec<u64> = points.iter().map(Self::point_key).collect();
        let store_dir = self.store_dir();
        let mut shards: Vec<Option<HashMap<u64, EvaluatedPoint>>> =
            (0..SHARD_COUNT).map(|_| None).collect();
        points
            .iter()
            .zip(&keys)
            .map(|(point, &key)| {
                let shard = shards[Self::shard_of(key)]
                    .get_or_insert_with(|| self.load_shard(Self::shard_of(key)));
                let stored = match shard.get(&key) {
                    Some(stored) => *stored,
                    // Rows whose disk append hit storage exhaustion
                    // exist only in the per-process overlay.
                    None => overlay_get(&store_dir, key)?,
                };
                // A 64-bit collision between different axis tuples is
                // astronomically unlikely but cheap to rule out.
                if stored.point.arch_key() != point.arch_key() || stored.point.app != point.app {
                    return None;
                }
                Some(EvaluatedPoint { point: *point, ..stored })
            })
            .collect()
    }

    /// Append freshly evaluated points to their shards. One buffered
    /// `write_all` per shard under that shard's exclusive advisory
    /// lock; the first writer to lock a fresh shard writes its header.
    ///
    /// The lock makes concurrent appends — from threads or from other
    /// processes — safe: a single large `write_all` on an `O_APPEND`
    /// descriptor is *not* atomic (the kernel may split it, letting
    /// another writer's rows land mid-line), and without the lock two
    /// writers can both observe an empty shard and both write the
    /// header. Both races corrupt rows that then read back as misses.
    pub fn append(&self, points: &[EvaluatedPoint]) -> io::Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        let dir = self.store_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            if !ng_fault::is_exhaustion(&e) {
                return Err(e);
            }
            // The store's filesystem cannot even hold the directory:
            // divert everything and keep the run alive.
            let rows: Vec<(u64, EvaluatedPoint)> =
                points.iter().map(|p| (Self::point_key(&p.point), *p)).collect();
            self.degrade_append(&dir, &rows, &e);
            return Ok(());
        }
        let mut by_shard = vec![(Vec::<u8>::new(), Vec::new()); SHARD_COUNT];
        for p in points {
            let key = Self::point_key(&p.point);
            let (buf, rows) = &mut by_shard[Self::shard_of(key)];
            write!(buf, "{key:016x},")?;
            write_point_row(buf, p)?;
            buf.push(b'\n');
            rows.push((key, *p));
        }
        for (shard, (body, shard_rows)) in by_shard.iter().enumerate() {
            if body.is_empty() {
                continue;
            }
            let path = dir.join(format!("shard-{shard:x}.csv"));
            // A transient failure (flaky filesystem, injected
            // `append:io` fault) is retried with jittered exponential
            // backoff. The injection point sits *before* the first
            // write, so a retried attempt never duplicates rows — and
            // even a mid-write retry would only produce a duplicate
            // key, which readers resolve (later wins).
            let (result, retries) = ng_fault::with_retries("append:io", || {
                Self::append_shard(&path, body, shard_rows.len() as u64)
            });
            if retries > 0 {
                obs_counters::store_retries().add(retries as u64);
                // The backoff site, in the trace: a deterministic
                // fault seed must reproduce not just the retry *count*
                // but *where* the backoff was spent
                // (tests/fault_determinism.rs pins both).
                ng_obs::emit_meta(
                    "store.retry",
                    &format!("shard {shard:x}: {retries} retried append attempt(s)"),
                );
            }
            match result {
                Ok(()) => {}
                // A *persistent* capacity error (ENOSPC, EROFS, quota,
                // permissions) will not yield to retries or to the next
                // shard. Divert this shard's rows to the in-memory
                // overlay and keep going: the sweep completes and
                // delivers results, at the cost of re-evaluating these
                // rows next run.
                Err(e) if ng_fault::is_exhaustion(&e) => self.degrade_append(&dir, shard_rows, &e),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Divert rows that could not be persisted to the per-process
    /// overlay: count them, warn once per process, and carry on.
    fn degrade_append(&self, store_dir: &Path, rows: &[(u64, EvaluatedPoint)], cause: &io::Error) {
        overlay_insert(store_dir, rows);
        obs_counters::store_degraded_appends().add(rows.len() as u64);
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "dse: point store append failed ({cause}); degrading to an in-memory overlay — \
                 this run completes, but its fresh rows are lost at exit and will re-evaluate \
                 next run (see the store.degraded_appends counter)"
            );
            ng_obs::emit_meta(
                "store.degraded",
                &format!("appends diverted to in-memory overlay: {cause}"),
            );
        });
    }

    /// One locked shard append: the whole critical section (length
    /// probe, header creation, tail repair, row write) under the
    /// shard's exclusive advisory lock. Idempotent from the caller's
    /// perspective until the body write starts, which is why
    /// [`EvalCache::append`] may retry it.
    fn append_shard(path: &Path, body: &[u8], rows: u64) -> io::Result<()> {
        if let Some(e) = ng_fault::store_append_error() {
            return Err(e);
        }
        if let Some(e) = ng_fault::store_append_exhaustion() {
            return Err(e);
        }
        // Exclusive advisory lock for the whole critical section
        // (length probe, header, tail repair, row write). Released
        // on drop/close — including by the kernel if we crash. A
        // filesystem that does not support locking degrades to the
        // old unlocked behaviour; any *other* lock failure (e.g. a
        // flaky network filesystem) is a real error — proceeding
        // unlocked would silently void the multi-writer contract.
        let lock_started = std::time::Instant::now();
        let mut file = fs::OpenOptions::new().read(true).create(true).append(true).open(path)?;
        if let Err(e) = file.lock() {
            if e.kind() != io::ErrorKind::Unsupported {
                return Err(e);
            }
        }
        obs_counters::store_lock_wait_us().add(lock_started.elapsed().as_micros() as u64);
        // The length must be read *after* the lock: another writer
        // may have created the header between open and lock.
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(
                format!(
                    "# ng-dse point cache | model {MODEL_VERSION} | fingerprint {:016x}\n",
                    model_fingerprint()
                )
                .as_bytes(),
            )?;
        } else {
            // A crashed writer can leave the shard without a final
            // newline; appending onto that torn tail would merge
            // (and so lose) the first fresh row. Terminate it first.
            use std::io::{Read, Seek, SeekFrom};
            let mut last = [0u8; 1];
            file.seek(SeekFrom::Start(len - 1))?;
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                file.write_all(b"\n")?;
                obs_counters::store_tail_heals().incr();
            }
        }
        if ng_fault::take_store_torn_tail() {
            // Simulate a writer killed mid-`write_all`: persist the
            // body with its final row cut in half and report success —
            // the caller believes the rows landed, exactly as a real
            // crash victim would have. Readers skip the torn row, and
            // the next run re-evaluates and re-appends it.
            let data = body.strip_suffix(b"\n").unwrap_or(body);
            let last_start = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let torn_end = last_start + (data.len() - last_start) / 2;
            file.write_all(&body[..torn_end.max(1)])?;
            obs_counters::store_rows_appended().add(rows.saturating_sub(1));
            return Ok(());
        }
        file.write_all(body)?;
        obs_counters::store_rows_appended().add(rows);
        Ok(())
    }

    /// Per-shard row counts: `(rows, bytes)` indexed by shard,
    /// counting only parseable data rows (comments, headers and torn
    /// lines excluded — the same rows [`EvalCache::lookup`] could
    /// serve). Powers the per-shard half of `dse --cache-stats`.
    pub fn shard_stats(&self) -> Vec<(usize, u64)> {
        (0..SHARD_COUNT)
            .map(|shard| {
                let path = self.store_dir().join(format!("shard-{shard:x}.csv"));
                let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                (self.load_shard(shard).len(), bytes)
            })
            .collect()
    }

    /// The cache's root directory (generations live underneath).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ng-dse-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_lookup_round_trips() {
        let dir = tmpdir("roundtrip");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        let points = spec.points();
        assert!(cache.lookup(&points).iter().all(Option::is_none), "cold cache");
        cache.append(&outcome.points).unwrap();
        let loaded = cache.lookup(&points);
        assert_eq!(
            loaded.into_iter().collect::<Option<Vec<_>>>().unwrap(),
            outcome.points,
            "every point hits, bit-identical"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_key_tracks_axes_not_index() {
        let spec = SweepSpec::quick();
        let points = spec.points();
        let mut reindexed = points[3];
        reindexed.index = 77;
        assert_eq!(
            EvalCache::point_key(&points[3]),
            EvalCache::point_key(&reindexed),
            "index not part of identity"
        );
        let mut grown = points[3];
        grown.clock_ghz = 1.25;
        assert_ne!(EvalCache::point_key(&points[3]), EvalCache::point_key(&grown));
        // All quick-spec points have distinct keys.
        let mut keys: Vec<u64> = points.iter().map(EvalCache::point_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), points.len());
    }

    #[test]
    fn point_key_covers_the_lane_and_fifo_axes() {
        // Stability: the key of the paper point must not move when only
        // the *spec* grows — and must move when either new axis value
        // changes, so v4 shards never serve a differently-laned point.
        let base = SweepSpec::quick().points()[0];
        assert_eq!(base.lanes_per_engine, 1);
        assert_eq!(base.input_fifo_depth, 64);
        let key = EvalCache::point_key(&base);
        let mut laned = base;
        laned.lanes_per_engine = 2;
        assert_ne!(key, EvalCache::point_key(&laned));
        let mut shallow = base;
        shallow.input_fifo_depth = 8;
        assert_ne!(key, EvalCache::point_key(&shallow));
        // Same axes, same key — regardless of which spec enumerated it.
        let mut re_spec = SweepSpec::quick();
        re_spec.lanes_per_engine = vec![1, 2];
        re_spec.input_fifo_depth = vec![8, 64];
        let twin = re_spec
            .points()
            .into_iter()
            .find(|p| p.arch_key() == base.arch_key() && p.app == base.app)
            .expect("grown spec still contains the paper point");
        assert_eq!(key, EvalCache::point_key(&twin));
    }

    #[test]
    fn lookup_rewrites_the_spec_index() {
        // A point cached under one spec must come back with the index
        // the *current* spec assigns it.
        let dir = tmpdir("reindex");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points).unwrap();
        let mut moved = spec.points()[5];
        moved.index = 0;
        let hit = cache.lookup(&[moved])[0].expect("hit");
        assert_eq!(hit.point.index, 0);
        assert_eq!(hit.speedup, outcome.points[5].speedup);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_lines_are_misses_for_only_their_points() {
        let dir = tmpdir("torn");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points).unwrap();
        // Truncate one shard's last line mid-row (a crashed append).
        let victim_key = EvalCache::point_key(&outcome.points[0].point);
        let path = cache.shard_path(victim_key);
        let text = fs::read_to_string(&path).unwrap();
        let keep_lines: Vec<&str> = text.lines().collect();
        let torn = format!(
            "{}\n{}",
            keep_lines[..keep_lines.len() - 1].join("\n"),
            &keep_lines[keep_lines.len() - 1][..20]
        );
        fs::write(&path, torn).unwrap();
        let loaded = cache.lookup(&spec.points());
        let misses = loaded.iter().filter(|p| p.is_none()).count();
        assert_eq!(misses, 1, "exactly the torn row misses");
        // Appending onto the torn tail must not merge rows: one
        // re-append heals the shard completely.
        let missing: Vec<_> = spec
            .points()
            .iter()
            .zip(&loaded)
            .filter(|(_, hit)| hit.is_none())
            .map(|(p, _)| outcome.points[p.index])
            .collect();
        cache.append(&missing).unwrap();
        assert!(cache.lookup(&spec.points()).iter().all(Option::is_some), "healed in one cycle");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_and_duplicate_headers_are_skipped_not_fatal() {
        // A pre-locking writer race could leave a second header mid
        // shard; the reader must keep every data row around it.
        let dir = tmpdir("dup-header");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points[..8]).unwrap();
        for key in outcome.points[..8].iter().map(|p| EvalCache::point_key(&p.point)) {
            let path = cache.shard_path(key);
            let mut text = fs::read_to_string(&path).unwrap();
            text.push_str("# ng-dse point cache | duplicate interior header\n");
            fs::write(&path, text).unwrap();
        }
        cache.append(&outcome.points[8..]).unwrap();
        assert!(
            cache.lookup(&spec.points()).iter().all(Option::is_some),
            "rows on both sides of an interior header must survive"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_thread_appends_lose_no_rows() {
        // Many writers, one store: every appended row must read back
        // intact (the locked-append contract, exercised in-process).
        let dir = tmpdir("concurrent");
        let spec = SweepSpec::mac_arrays();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let writers = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let slice: Vec<EvaluatedPoint> = outcome
                    .points
                    .iter()
                    .filter(|p| p.point.index % writers == w)
                    .copied()
                    .collect();
                let cache = EvalCache::new(&dir);
                scope.spawn(move || {
                    // One-row appends maximise interleaving pressure.
                    for p in &slice {
                        cache.append(std::slice::from_ref(p)).unwrap();
                    }
                });
            }
        });
        let cache = EvalCache::new(&dir);
        let loaded = cache.lookup(&spec.points());
        assert_eq!(
            loaded.into_iter().collect::<Option<Vec<_>>>().expect("no torn or lost rows"),
            outcome.points,
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_integrates_the_cache() {
        let dir = tmpdir("engine");
        let spec = SweepSpec::quick();
        let engine = SweepEngine::new().with_cache_dir(&dir);
        let first = engine.run(&spec).unwrap();
        assert!(!first.stats.cache_hit);
        assert_eq!(first.stats.evaluated, spec.point_count());
        assert_eq!(first.stats.cache_hits, 0);
        let second = engine.run(&spec).unwrap();
        assert!(second.stats.cache_hit);
        assert_eq!(second.stats.evaluated, 0);
        assert_eq!(second.stats.cache_hits, spec.point_count());
        assert_eq!(first.points, second.points, "cache returns bit-identical results");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_appends_serve_from_the_overlay() {
        // The full append:enospc plan is exercised cross-process in
        // tests/degrade.rs (one fault plan per process); here the
        // overlay seam itself: divert rows the way `append` does on a
        // real ENOSPC and assert every read path still serves them.
        let dir = tmpdir("degraded");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().without_cache().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        let enospc = io::Error::from_raw_os_error(28);
        assert!(ng_fault::is_exhaustion(&enospc));
        let rows: Vec<(u64, EvaluatedPoint)> =
            outcome.points.iter().map(|p| (EvalCache::point_key(&p.point), *p)).collect();
        let before = obs_counters::store_degraded_appends().get();
        cache.degrade_append(&cache.store_dir(), &rows, &enospc);
        assert!(
            obs_counters::store_degraded_appends().get() - before >= rows.len() as u64,
            "every diverted row is counted"
        );
        // Nothing reached disk, yet lookup serves every point
        // bit-identically — and with the current spec's indices.
        assert!(!cache.store_dir().exists(), "degradation writes nothing to disk");
        let loaded = cache.lookup(&spec.points());
        assert_eq!(
            loaded.into_iter().collect::<Option<Vec<_>>>().unwrap(),
            outcome.points,
            "overlay hits are bit-identical warm hits"
        );
        // A different store root shares the process but not the rows.
        let other = EvalCache::new(tmpdir("degraded-other"));
        assert!(
            other.lookup(&spec.points()).iter().all(Option::is_none),
            "overlay rows are keyed per store dir"
        );
    }

    #[test]
    fn grown_spec_evaluates_only_the_delta() {
        let dir = tmpdir("delta");
        let engine = SweepEngine::new().with_cache_dir(&dir);
        let base = SweepSpec::quick();
        engine.run(&base).unwrap();
        let mut grown = base.clone();
        grown.clock_ghz.push(1.25);
        let outcome = engine.run(&grown).unwrap();
        let added = grown.point_count() - base.point_count();
        assert_eq!(outcome.stats.evaluated, added, "only the new clock's points evaluated");
        assert_eq!(outcome.stats.cache_hits, base.point_count());
        // ... and the merged result equals an uncached full evaluation.
        let reference = SweepEngine::new().without_cache().run(&grown).unwrap();
        assert_eq!(outcome.points, reference.points);
        fs::remove_dir_all(&dir).unwrap();
    }
}
