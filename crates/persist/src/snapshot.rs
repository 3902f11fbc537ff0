//! Snapshots: the full database state at a log position, so recovery is
//! snapshot-load + tail-replay instead of replay-from-genesis.
//!
//! # File format
//!
//! `snapshot-<lsn, zero-padded>.snap`, atomically written (tmp + rename):
//!
//! ```text
//! #epilog-snapshot v1 <lsn> <payload-len> <fnv1a64-hex>\n
//! [theory]\n
//! <sentence per line>
//! [constraints]\n
//! <sentence per line>
//! [model]\n            (only for definite theories, when requested)
//! <ground atom per line>
//! [supports]\n         (only when provenance is enabled on the db)
//! <rule_idx>|<head atom>|<parent atom>|…
//! ```
//!
//! Sentences are serialized with the `epilog-syntax` pretty-printer and
//! read back with [`parse()`](fn@epilog_syntax::parse) — the same round-trip contract as the WAL.
//! The optional `[model]` section is the materialized least model of a
//! definite theory; restoring it skips the fixpoint recomputation at
//! recovery (debug builds re-derive and verify it).
//!
//! The optional `[supports]` section is the provenance side table: one
//! line per recorded support, `|`-separated (atom text never contains
//! `|`), parents possibly empty for body-less rules. The **marker's
//! presence** — even over zero lines — means provenance was enabled when
//! the snapshot was taken, so restore re-enables it; its absence restores
//! a provenance-off database.

use crate::fault::{self, FaultInjector};
use crate::fnv1a64;
use epilog_core::EpistemicDb;
use epilog_storage::Database;
use epilog_syntax::formula::Atom;
use epilog_syntax::{parse, Formula, Theory};
use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file exists but its header, checksum, or contents are invalid.
    Corrupt(String),
    /// The file passes its checksum, so it holds what was written, but a
    /// sentence in it does not parse (say, one nested past the parser's
    /// limit by an older writer). Recovery fails on it rather than fall
    /// back to an older state.
    Unreadable(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Unreadable(why) => write!(f, "unreadable snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A materialized database state bound to a log position: every record
/// with `lsn <= self.lsn` is reflected in it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The log position this snapshot covers.
    pub lsn: u64,
    /// The theory's sentences, in storage order.
    pub sentences: Vec<Formula>,
    /// The registered integrity constraints, in registration order.
    pub constraints: Vec<Formula>,
    /// The materialized least model (definite theories only), sorted.
    pub model: Option<Vec<Atom>>,
    /// The provenance support table as `(head, rule_idx, parents)`
    /// entries, sorted; `Some` (possibly empty) exactly when provenance
    /// was enabled on the captured database.
    pub supports: Option<Vec<(Atom, u32, Vec<Atom>)>>,
}

impl Snapshot {
    /// Capture the state of `db` as of log position `lsn`.
    pub fn of(db: &EpistemicDb, lsn: u64, include_model: bool) -> Snapshot {
        let model = if include_model {
            db.prover().atom_model().map(|m: &Database| {
                let mut atoms: Vec<Atom> = m.atoms().collect();
                atoms.sort_by_cached_key(|a| a.to_string());
                atoms
            })
        } else {
            None
        };
        let supports = db.support_table().map(|t| {
            let mut entries: Vec<(Atom, u32, Vec<Atom>)> = t.entries().collect();
            entries.sort_by_cached_key(|(head, rule, parents)| {
                (
                    head.to_string(),
                    *rule,
                    parents.iter().map(Atom::to_string).collect::<Vec<_>>(),
                )
            });
            entries
        });
        Snapshot {
            lsn,
            sentences: db.theory().sentences().to_vec(),
            constraints: db.constraints().to_vec(),
            model,
            supports,
        }
    }

    /// The file name a snapshot at `lsn` is stored under (zero-padded so
    /// lexicographic order is LSN order).
    pub fn file_name(lsn: u64) -> String {
        format!("snapshot-{lsn:020}.snap")
    }

    /// Write atomically into `dir`, returning the file path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        self.write_with(dir, None)
    }

    /// [`Snapshot::write`] with an optional [`FaultInjector`] over the
    /// data writes and the pre-rename sync. A failed write never renames
    /// — the half-written temp file is removed (best effort) and no
    /// existing snapshot is disturbed.
    pub fn write_with(&self, dir: &Path, injector: Option<&FaultInjector>) -> io::Result<PathBuf> {
        let mut payload = String::from("[theory]\n");
        for w in &self.sentences {
            payload.push_str(&w.to_string());
            payload.push('\n');
        }
        payload.push_str("[constraints]\n");
        for ic in &self.constraints {
            payload.push_str(&ic.to_string());
            payload.push('\n');
        }
        if let Some(model) = &self.model {
            payload.push_str("[model]\n");
            for a in model {
                payload.push_str(&a.to_string());
                payload.push('\n');
            }
        }
        if let Some(supports) = &self.supports {
            payload.push_str("[supports]\n");
            for (head, rule, parents) in supports {
                payload.push_str(&rule.to_string());
                payload.push('|');
                payload.push_str(&head.to_string());
                for p in parents {
                    payload.push('|');
                    payload.push_str(&p.to_string());
                }
                payload.push('\n');
            }
        }
        let header = format!(
            "#epilog-snapshot v1 {} {} {:016x}\n",
            self.lsn,
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        let path = dir.join(Snapshot::file_name(self.lsn));
        let tmp = path.with_extension("snap.tmp");
        let written = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            fault::write_all(injector, &mut f, header.as_bytes())?;
            fault::write_all(injector, &mut f, payload.as_bytes())?;
            fault::sync_data(injector, &f)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, &path)?;
        crate::sync_dir(dir)?;
        Ok(path)
    }

    /// Load and validate a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let text =
            std::str::from_utf8(&bytes).map_err(|_| SnapshotError::Corrupt("not UTF-8".into()))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Corrupt("missing header line".into()))?;
        let fields: Vec<&str> = header.split(' ').collect();
        let [magic, version, lsn, len, sum] = fields.as_slice() else {
            return Err(SnapshotError::Corrupt("malformed header".into()));
        };
        if *magic != "#epilog-snapshot" || *version != "v1" {
            return Err(SnapshotError::Corrupt(format!(
                "bad magic/version {header:?}"
            )));
        }
        let lsn: u64 = lsn
            .parse()
            .map_err(|_| SnapshotError::Corrupt("bad lsn".into()))?;
        let len: usize = len
            .parse()
            .map_err(|_| SnapshotError::Corrupt("bad length".into()))?;
        let sum = u64::from_str_radix(sum, 16)
            .map_err(|_| SnapshotError::Corrupt("bad checksum".into()))?;
        if payload.len() != len {
            return Err(SnapshotError::Corrupt(format!(
                "payload length {} != declared {len}",
                payload.len()
            )));
        }
        if fnv1a64(payload.as_bytes()) != sum {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        let mut sentences = Vec::new();
        let mut constraints = Vec::new();
        let mut model: Option<Vec<Atom>> = None;
        let mut supports: Option<Vec<(Atom, u32, Vec<Atom>)>> = None;
        enum Section {
            None,
            Theory,
            Constraints,
            Model,
            Supports,
        }
        fn ground_atom(text: &str) -> Result<Atom, SnapshotError> {
            let w = parse(text).map_err(|e| {
                SnapshotError::Unreadable(format!("unparseable line {text:?}: {e}"))
            })?;
            match w {
                Formula::Atom(a) if a.is_ground() => Ok(a),
                other => Err(SnapshotError::Corrupt(format!(
                    "expected a ground atom, got: {other}"
                ))),
            }
        }
        let mut section = Section::None;
        for line in payload.lines() {
            match line {
                "[theory]" => section = Section::Theory,
                "[constraints]" => section = Section::Constraints,
                "[model]" => {
                    section = Section::Model;
                    model = Some(Vec::new());
                }
                "[supports]" => {
                    section = Section::Supports;
                    supports = Some(Vec::new());
                }
                _ => match section {
                    Section::None => {
                        return Err(SnapshotError::Corrupt(format!(
                            "content before any section marker: {line:?}"
                        )))
                    }
                    Section::Theory | Section::Constraints => {
                        let w = parse(line).map_err(|e| {
                            SnapshotError::Unreadable(format!("unparseable line {line:?}: {e}"))
                        })?;
                        match section {
                            Section::Theory => sentences.push(w),
                            _ => constraints.push(w),
                        }
                    }
                    Section::Model => model
                        .as_mut()
                        .expect("section set")
                        .push(ground_atom(line)?),
                    Section::Supports => {
                        let mut fields = line.split('|');
                        let rule: u32 =
                            fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                                SnapshotError::Corrupt(format!("bad support rule idx: {line:?}"))
                            })?;
                        let head = ground_atom(fields.next().ok_or_else(|| {
                            SnapshotError::Corrupt(format!("support line missing head: {line:?}"))
                        })?)?;
                        let parents = fields.map(ground_atom).collect::<Result<Vec<_>, _>>()?;
                        supports
                            .as_mut()
                            .expect("section set")
                            .push((head, rule, parents));
                    }
                },
            }
        }
        Ok(Snapshot {
            lsn,
            sentences,
            constraints,
            model,
            supports,
        })
    }

    /// Every snapshot in `dir`, as `(lsn, path)` sorted ascending by LSN.
    /// Files are identified by name only; validation happens at load.
    pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = name
                .strip_prefix("snapshot-")
                .and_then(|s| s.strip_suffix(".snap"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((lsn, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Rebuild the database this snapshot captured. Returns the database
    /// and whether the stored model was attached (skipping the fixpoint).
    ///
    /// Constraints are re-registered through
    /// `EpistemicDb::adopt_constraint`: they held when the (checksummed)
    /// snapshot was written, so the full satisfaction check is not re-run
    /// here — re-verifying the whole state would make snapshot recovery
    /// slower than the log replay it exists to avoid. Debug builds still
    /// verify; the log records replayed *after* the snapshot go through
    /// the fully checked commit path.
    pub fn restore(&self) -> Result<(EpistemicDb, bool), SnapshotError> {
        let theory = Theory::new(self.sentences.clone())
            .map_err(|e| SnapshotError::Corrupt(format!("invalid sentence: {e}")))?;
        let (mut db, model_restored) = match &self.model {
            Some(atoms) => {
                let mut m = Database::new();
                for a in atoms {
                    m.insert(a);
                }
                (EpistemicDb::with_attached_model(theory, m), true)
            }
            None => (EpistemicDb::new(theory), false),
        };
        for ic in &self.constraints {
            db.adopt_constraint(ic.clone())
                .map_err(|e| SnapshotError::Corrupt(format!("invalid constraint: {e}")))?;
        }
        if let Some(entries) = &self.supports {
            if model_restored {
                let mut table = epilog_core::SupportTable::new();
                for (head, rule, parents) in entries {
                    let tuple = epilog_datalog::provenance::params_of(head).ok_or_else(|| {
                        SnapshotError::Corrupt(format!("non-constant support head: {head}"))
                    })?;
                    let parents = parents
                        .iter()
                        .map(|p| {
                            epilog_datalog::provenance::params_of(p)
                                .map(|t| (p.pred, t))
                                .ok_or_else(|| {
                                    SnapshotError::Corrupt(format!(
                                        "non-constant support parent: {p}"
                                    ))
                                })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    table.record(head.pred, &tuple, *rule, &parents);
                }
                db.adopt_provenance(table);
            } else {
                // No materialized model to attach the table to — re-derive
                // it so the marker's "provenance was on" promise still holds.
                db.enable_provenance();
            }
        }
        Ok((db, model_restored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-snap-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_db() -> EpistemicDb {
        let mut db =
            EpistemicDb::from_text("emp(Mary)\nss(Mary, n1)\nforall x. emp(x) -> person(x)")
                .unwrap();
        db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
            .unwrap();
        db
    }

    #[test]
    fn write_load_restore_roundtrip() {
        let d = dir();
        let db = sample_db();
        let snap = Snapshot::of(&db, 7, true);
        assert!(snap.model.is_some(), "definite theory has a model");
        let path = snap.write(&d).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.lsn, 7);
        assert_eq!(loaded.sentences, snap.sentences);
        assert_eq!(loaded.constraints, snap.constraints);
        assert_eq!(loaded.model, snap.model);
        let (restored, model_restored) = loaded.restore().unwrap();
        assert!(model_restored);
        assert_eq!(restored.theory(), db.theory());
        assert_eq!(restored.constraints(), db.constraints());
        assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn provenance_table_roundtrips_and_reenables() {
        let d = dir();
        let mut db = EpistemicDb::from_text(
            "edge(a, b)\nedge(b, c)\nforall x. forall y. edge(x, y) -> path(x, y)\n\
             forall x. forall y. forall z. edge(x, y) & path(y, z) -> path(x, z)",
        )
        .unwrap();
        assert!(db.enable_provenance());
        let (atoms, supports) = db.provenance_size();
        assert!(atoms > 0 && supports > 0);
        let snap = Snapshot::of(&db, 9, true);
        assert!(snap.supports.as_ref().is_some_and(|s| !s.is_empty()));
        let path = snap.write(&d).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.supports, snap.supports);
        let (restored, model_restored) = loaded.restore().unwrap();
        assert!(model_restored);
        assert!(restored.provenance_enabled());
        assert_eq!(restored.provenance_size(), db.provenance_size());
        let q: Atom = match parse("path(a, c)").unwrap() {
            Formula::Atom(a) => a,
            other => panic!("expected atom, got {other}"),
        };
        let proof = restored.why(&q).expect("derived tuple has a proof");
        assert!(proof.height() >= 2, "path(a,c) needs the recursive rule");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn provenance_off_snapshots_restore_provenance_off() {
        let d = dir();
        let db = sample_db();
        let path = Snapshot::of(&db, 2, true).write(&d).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert!(loaded.supports.is_none());
        let (restored, _) = loaded.restore().unwrap();
        assert!(!restored.provenance_enabled());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn non_definite_theories_snapshot_without_model() {
        let d = dir();
        let db = EpistemicDb::from_text("p(a) | q(a)").unwrap();
        let snap = Snapshot::of(&db, 1, true);
        assert!(snap.model.is_none());
        let path = snap.write(&d).unwrap();
        let (restored, model_restored) = Snapshot::load(&path).unwrap().restore().unwrap();
        assert!(!model_restored);
        assert_eq!(restored.theory(), db.theory());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let d = dir();
        let db = sample_db();
        let path = Snapshot::of(&db, 3, true).write(&d).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn listing_sorts_by_lsn() {
        let d = dir();
        let db = sample_db();
        for lsn in [12u64, 3, 7] {
            let _ = Snapshot::of(&db, lsn, false).write(&d).unwrap();
        }
        let lsns: Vec<u64> = Snapshot::list(&d)
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(lsns, vec![3, 7, 12]);
        std::fs::remove_dir_all(d).unwrap();
    }
}
