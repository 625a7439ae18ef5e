//! Recovering a catalog from its data directory.
//!
//! ## Durability
//!
//! [`Catalog::persist_to`] attaches a [`pscc_store::Store`] to an entry:
//! from then on [`Catalog::apply_delta`] is **write-ahead** — the
//! effective delta is appended to the store's log and fsynced *before*
//! the in-memory swap, so once `apply_delta` returns the update survives
//! a crash. [`Catalog::open`] recovers a whole catalog from such a
//! directory: newest valid snapshot per graph + log-suffix replay, torn
//! tails truncated. A background worker compacts stores whose log
//! outgrows their snapshot (see [`CompactionPolicy`]); queries never
//! wait on a compaction (it holds only the update lock), while writers
//! to that one entry wait for its snapshot write.
//!
//! The data directory holds one subdirectory per durable graph, named by
//! [`encode_name`]; [`store_dirs`] is the one scan of that layout, shared
//! by recovery and `pscc-doctor`.
//!
//! [`CompactionPolicy`]: crate::CompactionPolicy

use crate::batch::BatchOptions;
use crate::catalog::{decode_name, encode_name, Catalog};
use crate::delta::Delta;
use crate::entry::Entry;
use crate::index::IndexConfig;
use pscc_store::Store;
use pscc_telemetry::recorder::{self, FlightEvent};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

impl Catalog {
    /// Recovers a catalog from a data directory previously populated via
    /// [`Catalog::persist_to`]: every subdirectory that looks like a
    /// store (holds a `wal.log` or snapshot files) is opened — newest
    /// valid snapshot, write-ahead log suffix replayed through the
    /// regular merge path, torn tail truncated — and registered under its
    /// original name with its persisted [`BatchOptions`]. Indexes are not
    /// persisted; they rebuild lazily on first query.
    ///
    /// Unrelated directories (`lost+found`, operator backups — anything
    /// without store files) are skipped; a directory that *does* hold
    /// store files but cannot be recovered is an error, never silently
    /// dropped.
    ///
    /// Entries use the default [`IndexConfig`]; use
    /// [`Catalog::open_with_config`] to override it.
    pub fn open(data_dir: impl AsRef<Path>) -> io::Result<Catalog> {
        Self::open_with_config(data_dir, IndexConfig::default())
    }

    /// [`Catalog::open`] with an explicit per-entry [`IndexConfig`]
    /// (applied to every recovered graph).
    pub fn open_with_config(
        data_dir: impl AsRef<Path>,
        config: IndexConfig,
    ) -> io::Result<Catalog> {
        let catalog = Catalog::new();
        for (dir, name) in store_dirs(data_dir.as_ref(), true)? {
            if Store::is_aborted_create(&dir)? {
                // A persist_to crashed before its initial snapshot:
                // nothing was ever acknowledged for this graph, so it is
                // absent, not corrupt.
                continue;
            }
            let name = name.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "directory {dir:?} holds store files but its name is not a \
                         canonically encoded graph name"
                    ),
                )
            })?;
            let (store, recovery) = Store::open(&dir)?;
            let batch = BatchOptions {
                memo_bits: recovery.meta.memo_bits,
                grain: recovery.meta.grain as usize,
            };
            let entry = Entry::new(
                &name,
                config.clone(),
                batch,
                Arc::new(recovery.graph),
                recovery.meta.generation,
                Some(Arc::new(store)),
            );
            if recorder::is_active() {
                recorder::record(
                    FlightEvent::new("recovery_replay")
                        .field("graph", &name)
                        .field("snapshot_generation", recovery.meta.generation)
                        .field("replayed_records", recovery.replayed.len()),
                );
            }
            for record in recovery.replayed {
                let delta = Delta::from_parts(record.insertions, record.deletions);
                // `log = false`: the record came *from* the log.
                entry.apply_delta(&delta, false).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("replaying {name:?}: {e}"))
                })?;
            }
            catalog.register(name, entry);
        }
        Ok(catalog)
    }
}

/// The store subdirectories of a catalog data dir: each subdirectory that
/// holds store files ([`Store::holds_store_files`]) as its path and the
/// graph name its directory name encodes — `None` unless that encoding is
/// canonical (decode + re-encode roundtrips; otherwise two directories,
/// e.g. `g` and `%67`, could decode to the same name and one would
/// silently shadow the other). Unrelated directories (`lost+found`,
/// backups) are left out.
///
/// A subdirectory that cannot be listed is left out when
/// `skip_unreadable` (recovery) and an error otherwise (`pscc-doctor`).
pub fn store_dirs(
    data_dir: &Path,
    skip_unreadable: bool,
) -> io::Result<Vec<(PathBuf, Option<String>)>> {
    let mut out = Vec::new();
    for dir_entry in std::fs::read_dir(data_dir)? {
        let dir_entry = dir_entry?;
        if !dir_entry.file_type()?.is_dir() {
            continue;
        }
        let path = dir_entry.path();
        let holds = match Store::holds_store_files(&path) {
            Err(_) if skip_unreadable => false,
            holds => holds?,
        };
        if holds {
            let name = dir_entry
                .file_name()
                .to_str()
                .and_then(|raw| decode_name(raw).filter(|name| encode_name(name) == raw));
            out.push((path, name));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::tmpdir;
    use pscc_graph::generators::simple::path_digraph;

    #[test]
    fn persist_apply_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(6));
        cat.persist_to("g", &dir).unwrap();
        let mut d = Delta::new();
        d.insert(5, 0); // close the cycle (durable, write-ahead)
        cat.apply_delta("g", &d).unwrap();
        let mut d2 = Delta::new();
        d2.delete(2, 3);
        cat.apply_delta("g", &d2).unwrap();
        drop(cat);

        let back = Catalog::open(&dir).unwrap();
        assert_eq!(back.names(), vec!["g".to_string()]);
        assert_eq!(back.generation("g"), Some(2));
        // 5 -> 0 present, 2 -> 3 gone: 3 wraps around to 0, but 1 dead-ends at 2.
        assert_eq!(back.reaches("g", 3, 0), Some(true));
        assert_eq!(back.reaches("g", 1, 3), Some(false));
        let expected = path_digraph(6).with_delta(&[(5, 0)], &[(2, 3)]);
        assert_eq!(back.graph("g").unwrap().out_csr(), expected.out_csr());
        // The recovered entry is durable too: its next delta survives
        // another reopen.
        let mut d3 = Delta::new();
        d3.insert(1, 3);
        back.apply_delta("g", &d3).unwrap();
        drop(back);
        let again = Catalog::open(&dir).unwrap();
        assert_eq!(again.generation("g"), Some(3));
        assert_eq!(again.reaches("g", 1, 3), Some(true));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopened_catalog_keeps_batch_options() {
        let dir = tmpdir("batchopts");
        let cat = Catalog::new();
        let opts = BatchOptions { memo_bits: 3, grain: 7 };
        cat.insert_with_config("g", path_digraph(10), IndexConfig::default(), opts);
        cat.persist_to("g", &dir).unwrap();
        drop(cat);
        let back = Catalog::open(&dir).unwrap();
        let entry = back.entry("g").unwrap();
        assert_eq!(entry.batch.memo_bits, 3);
        assert_eq!(entry.batch.grain, 7);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_on_an_empty_directory_is_an_empty_catalog() {
        let dir = tmpdir("empty");
        let cat = Catalog::open(&dir).unwrap();
        assert!(cat.names().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_skips_unrelated_directories() {
        // Stray directories in a data dir (lost+found, backups) must not
        // block recovery of the real stores next to them.
        let dir = tmpdir("stray");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        cat.persist_to("g", &dir).unwrap();
        std::fs::create_dir(dir.join("lost+found")).unwrap();
        std::fs::create_dir(dir.join("backups")).unwrap();
        std::fs::write(dir.join("backups").join("notes.txt"), "not a store").unwrap();
        drop(cat);
        let back = Catalog::open(&dir).unwrap();
        assert_eq!(back.names(), vec!["g".to_string()]);
        // But a directory that *does* hold store data (a log with
        // records, not just an aborted creation's header) under an
        // undecodable name is an error, not a silent skip.
        std::fs::create_dir(dir.join("bad|name")).unwrap();
        std::fs::write(dir.join("bad|name").join("wal.log"), b"PSCCWAL1 plus record bytes")
            .unwrap();
        assert!(Catalog::open(&dir).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
