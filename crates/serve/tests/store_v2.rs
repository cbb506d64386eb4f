//! Crash-safety properties of the v2 result store: whatever a crash or a
//! bad disk does to the file — truncation at an arbitrary byte, a
//! flipped byte anywhere — loading never aborts, every entry that *is*
//! served is bit-identical to an entry that was saved, and anything the
//! checksums reject lands in the `.corrupt` quarantine file.

use bsp_instance::{io, Instance};
use bsp_serve::cache::{fnv64, CachedResult, ResultStore};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// A small store of `n` distinct entries with value-bearing payloads.
fn build_store(n: usize, salt: u64) -> (ResultStore, HashMap<String, CachedResult>) {
    let mut store = ResultStore::new();
    let mut originals = HashMap::new();
    for i in 0..n {
        let entry = CachedResult {
            instance: format!("spmv?n={}&seed={salt}", 100 + i),
            machine: "bsp?p=4&g=2".to_string(),
            sched: "pipeline/base?ilp=off".to_string(),
            cost: salt.wrapping_mul(31).wrapping_add(i as u64) % 10_000 + 1,
            procs: (0..4).map(|p| ((p + i) % 4) as u32).collect(),
            steps: (0..4).map(|s| (s % 3) as u32).collect(),
        };
        originals.insert(entry.key().composite(), entry.clone());
        store.insert(entry);
    }
    (store, originals)
}

/// A unique scratch path per proptest case so parallel test binaries and
/// shrinking iterations never collide.
fn scratch(tag: &str, a: u64, b: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("bsp-serve-store-v2-prop");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}-{}-{a}-{b}.store", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.corrupt", path.display()));
}

/// Served entries must be bit-identical to saved ones: corruption may
/// *lose* data (into quarantine), never *alter* what comes back.
fn assert_served_subset(loaded: &ResultStore, originals: &HashMap<String, CachedResult>) {
    for (key, original) in originals {
        if let Some(served) = loaded.peek(&original.key()) {
            assert_eq!(served, original, "entry {key} came back altered");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at ANY byte offset — mid-header, mid-entry, mid-checksum
    /// — loads without error; complete surviving lines are served intact
    /// and the torn tail (if any) is quarantined.
    #[test]
    fn truncation_never_aborts_and_intact_entries_survive(
        n in 1usize..6,
        salt in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let path = scratch("trunc", salt, (cut_frac * 1e6) as u64);
        cleanup(&path);
        let (mut store, originals) = build_store(n, salt);
        store.save(&path).expect("save a clean store");

        let bytes = std::fs::read(&path).expect("read saved store");
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let loaded = ResultStore::load(&path).expect("truncated load must not abort");
        let stats = loaded.stats();
        prop_assert!(stats.len as usize <= n);
        assert_served_subset(&loaded, &originals);
        // A torn (non-empty, partial) tail is accounted for: either every
        // entry survived, or something was counted corrupt, or the cut
        // fell exactly on a line boundary and whole lines vanished.
        if stats.corrupt > 0 {
            let q = std::fs::read_to_string(format!("{}.corrupt", path.display()))
                .expect("quarantine file exists when corrupt > 0");
            prop_assert!(!q.trim().is_empty());
        }
        cleanup(&path);
    }

    /// A single flipped byte anywhere in the file loads without error;
    /// the checksum rejects the damaged line (or the damaged header
    /// quarantines the document) and every untouched entry is served.
    #[test]
    fn bit_flip_is_quarantined_and_the_rest_served(
        n in 1usize..6,
        salt in 0u64..1000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let path = scratch("flip", salt, (pos_frac * 1e6) as u64 + flip as u64);
        cleanup(&path);
        let (mut store, originals) = build_store(n, salt);
        store.save(&path).expect("save a clean store");

        let mut bytes = std::fs::read(&path).expect("read saved store");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip; // flip != 0: the byte really changes
        std::fs::write(&path, &bytes).expect("write corrupted store");

        let loaded = ResultStore::load(&path).expect("bit-flipped load must not abort");
        let stats = loaded.stats();
        assert_served_subset(&loaded, &originals);
        // One flipped byte damages at most two lines (flipping a
        // newline merges neighbours); everything else must survive —
        // unless the header itself was hit, which quarantines the
        // whole document.
        let header_hit = stats.len == 0 && stats.corrupt == 1;
        prop_assert!(
            header_hit || stats.len as usize >= n.saturating_sub(2),
            "lost too much to one byte: len={} corrupt={} n={n}",
            stats.len,
            stats.corrupt,
        );
        prop_assert!(
            stats.corrupt >= 1,
            "a changed byte must be detected somewhere (len={} n={n})",
            stats.len,
        );
        cleanup(&path);
    }

    /// Reload after re-saving a corrupted store round-trips exactly: the
    /// survivors are a valid v2 store in their own right.
    #[test]
    fn resave_after_corruption_round_trips(
        n in 1usize..6,
        salt in 0u64..1000,
        cut_frac in 0.3f64..1.0,
    ) {
        let path = scratch("resave", salt, (cut_frac * 1e6) as u64);
        cleanup(&path);
        let (mut store, originals) = build_store(n, salt);
        store.save(&path).expect("save a clean store");

        let bytes = std::fs::read(&path).expect("read saved store");
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let mut survivor = ResultStore::load(&path).expect("load survivors");
        let survivors = survivor.stats().len;
        survivor.save(&path).expect("re-save survivors");
        let reloaded = ResultStore::load(&path).expect("reload the re-save");
        prop_assert_eq!(reloaded.stats().len, survivors);
        prop_assert_eq!(reloaded.stats().corrupt, 0, "re-saved store is clean");
        assert_served_subset(&reloaded, &originals);
        cleanup(&path);
    }
}

/// A v2 line whose length and checksum hold but whose body nests 10⁵
/// brackets is quarantined like any other bad line: the JSON parser
/// refuses it past 128 levels instead of recursing off the end of the
/// stack, and every other entry loads. The instance reader refuses the
/// same text.
#[test]
fn a_deeply_nested_entry_is_quarantined_and_the_rest_served() {
    let path = scratch("deep", 0, 0);
    cleanup(&path);
    let (mut store, originals) = build_store(3, 7);
    store.save(&path).expect("save a clean store");

    let k = 100_000;
    let body = format!("{{\"instance\":{}{}}}", "[".repeat(k), "]".repeat(k));
    let line = format!("{} {:016x} {body}\n", body.len(), fnv64(body.as_bytes()));
    let text = std::fs::read_to_string(&path).expect("read saved store") + &line;
    std::fs::write(&path, text).expect("append the deep line");

    let loaded = ResultStore::load(&path).expect("a deep line must not abort the load");
    assert_eq!((loaded.stats().len, loaded.stats().corrupt), (3, 1));
    assert_served_subset(&loaded, &originals);
    let quarantined = std::fs::read_to_string(format!("{}.corrupt", path.display()))
        .expect("the deep line is quarantined");
    assert!(quarantined.ends_with(&format!("{body}\n")));
    cleanup(&path);

    let err = io::from_json::<Instance>(&body).unwrap_err().to_string();
    assert_eq!(err, "nesting deeper than 128 at byte 139");
    assert!(io::from_jsonl::<Instance>(&body).is_err());
}
