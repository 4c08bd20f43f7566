//! Durable tenant state: snapshot files plus a WAL-style mutation log.
//!
//! Each tenant owns two files under the snapshot directory:
//!
//! * `<tenant>.snap` — one JSON object, `{"crc":C,"snap":S}` where `S`
//!   is `{"tenant":...,"seq":N,"definition":...,"facts":[...]}`: the
//!   stripped definition text plus the *current* fact set at sequence
//!   number `N`, and `C` is the FNV-1a checksum of `S`'s serialization.
//!   Written atomically (temp file + rename), so a crash mid-snapshot
//!   leaves the previous snapshot intact.
//! * `<tenant>.wal` — one line per applied [`Delta`] in
//!   [`whynot_relation::wire`] WAL format, sequence numbers strictly
//!   increasing from the snapshot's. A successful snapshot truncates
//!   the log.
//!
//! Recovery ([`Durability::load`]) parses the snapshot, rebuilds the
//! instance from its fact list, then replays WAL records in order. It
//! skips records at the head of the log that the snapshot already holds
//! (a crash between the snapshot's rename and the WAL unlink leaves
//! them), then **stops at the first invalid record** (torn tail,
//! checksum mismatch, out-of-order sequence) and reports what stopped it
//! — everything up to that point is recovered. The caller replays the
//! returned deltas through `WhyNotSession::apply_delta`, so a restarted
//! tenant takes the same incremental-invalidation path a live one does.

use crate::definition::{parse_definition, ParsedDefinition};
use crate::error::ServerError;
use std::path::PathBuf;
use whynot_relation::json::{Json, JsonObj};
use whynot_relation::wire::{
    checksum, delta_from_wal_line, delta_to_wal_line, fact_from_json, fact_to_json,
};
use whynot_relation::{Delta, Instance, Schema};

/// Handle on one snapshot directory.
pub struct Durability {
    dir: PathBuf,
}

/// What [`Durability::load`] recovered for one tenant.
pub struct LoadedTenant {
    /// The re-parsed definition (schema, ontology; its instance is
    /// empty — the snapshot's fact list is authoritative).
    pub definition: ParsedDefinition,
    /// The instance at snapshot time.
    pub instance: Instance,
    /// The snapshot's sequence number.
    pub snapshot_seq: u64,
    /// Valid WAL records after the snapshot, in order.
    pub wal: Vec<(u64, Delta)>,
    /// Why replay stopped early, if it did (the records before it are
    /// still recovered).
    pub wal_error: Option<String>,
}

impl Durability {
    /// A handle on `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Durability { dir: dir.into() }
    }

    fn snap_path(&self, tenant: &str) -> PathBuf {
        self.dir.join(format!("{tenant}.snap"))
    }

    fn wal_path(&self, tenant: &str) -> PathBuf {
        self.dir.join(format!("{tenant}.wal"))
    }

    /// Writes an atomic snapshot at sequence `seq` and truncates the
    /// tenant's WAL. Returns the number of facts captured.
    pub fn write_snapshot(
        &self,
        tenant: &str,
        stripped: &str,
        schema: &Schema,
        instance: &Instance,
        seq: u64,
    ) -> Result<usize, ServerError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| ServerError::Io(format!("create {}: {e}", self.dir.display())))?;
        let facts: Vec<Json> = instance.facts().map(|f| fact_to_json(schema, &f)).collect();
        let count = facts.len();
        let snap = JsonObj::new()
            .field("tenant", tenant)
            .field("seq", seq)
            .field("definition", stripped)
            .field("facts", Json::Arr(facts))
            .build();
        let body = snap.to_string();
        let doc = JsonObj::new()
            .field("crc", checksum(body.as_bytes()))
            .field("snap", snap)
            .build();
        let path = self.snap_path(tenant);
        let tmp = self.dir.join(format!("{tenant}.snap.tmp"));
        std::fs::write(&tmp, format!("{doc}\n"))
            .map_err(|e| ServerError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServerError::Io(format!("rename {}: {e}", path.display())))?;
        // The snapshot captures everything the log held.
        let wal = self.wal_path(tenant);
        if wal.exists() {
            std::fs::remove_file(&wal)
                .map_err(|e| ServerError::Io(format!("truncate {}: {e}", wal.display())))?;
        }
        Ok(count)
    }

    /// Appends one delta to the tenant's WAL at sequence `seq`.
    pub fn append_wal(
        &self,
        tenant: &str,
        schema: &Schema,
        seq: u64,
        delta: &Delta,
    ) -> Result<(), ServerError> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| ServerError::Io(format!("create {}: {e}", self.dir.display())))?;
        let path = self.wal_path(tenant);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ServerError::Io(format!("open {}: {e}", path.display())))?;
        let line = delta_to_wal_line(schema, seq, delta);
        writeln!(file, "{line}")
            .map_err(|e| ServerError::Io(format!("append {}: {e}", path.display())))
    }

    /// Whether a snapshot exists for the tenant.
    pub fn has_snapshot(&self, tenant: &str) -> bool {
        self.snap_path(tenant).exists()
    }

    /// Loads a tenant: snapshot, then WAL replay up to the first
    /// invalid record (see the module docs).
    pub fn load(&self, tenant: &str) -> Result<LoadedTenant, ServerError> {
        let path = self.snap_path(tenant);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ServerError::Io(format!("read {}: {e}", path.display())))?;
        let doc = Json::parse(text.trim())
            .map_err(|e| ServerError::Wal(format!("snapshot {}: {e}", path.display())))?;
        let (crc, snap) = match (doc.get("crc").and_then(Json::as_int), doc.get("snap")) {
            (Some(crc), Some(snap)) => (crc, snap),
            _ => {
                return Err(ServerError::Wal(format!(
                    "snapshot {} is missing crc/snap fields",
                    path.display()
                )))
            }
        };
        let body = snap.to_string();
        let actual = checksum(body.as_bytes());
        if i128::from(actual) != crc {
            return Err(ServerError::Wal(format!(
                "snapshot {} failed checksum verification",
                path.display()
            )));
        }
        let definition_text = snap
            .get("definition")
            .and_then(Json::as_str)
            .ok_or_else(|| ServerError::Wal("snapshot has no definition".into()))?;
        let snapshot_seq = snap
            .get("seq")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| ServerError::Wal("snapshot has no seq".into()))?;
        let definition = parse_definition(definition_text)?;
        let mut instance = Instance::new();
        for fact in snap
            .get("facts")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServerError::Wal("snapshot has no facts".into()))?
        {
            let fact = fact_from_json(&definition.schema, fact)
                .map_err(|e| ServerError::Wal(format!("snapshot fact: {e}")))?;
            instance.insert(fact.rel, fact.tuple);
        }

        let (wal, wal_error) = self.replay_wal(tenant, &definition.schema, snapshot_seq);
        Ok(LoadedTenant {
            definition,
            instance,
            snapshot_seq,
            wal,
            wal_error,
        })
    }

    /// Reads the WAL, returning records with `seq > after` in order and
    /// the reason replay stopped, if any.
    ///
    /// Records at the head of the log with `seq ≤ after` are skipped: a
    /// crash between the snapshot's rename and the WAL unlink leaves
    /// records the snapshot already holds in front of later acknowledged
    /// ones. Past that head, replay stops at the first torn, invalid or
    /// out-of-order record.
    fn replay_wal(
        &self,
        tenant: &str,
        schema: &Schema,
        after: u64,
    ) -> (Vec<(u64, Delta)>, Option<String>) {
        let path = self.wal_path(tenant);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            // No log — the snapshot alone is the state.
            Err(_) => return (Vec::new(), None),
        };
        let mut records = Vec::new();
        let mut last_seq = after;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match delta_from_wal_line(schema, line) {
                Ok((seq, delta)) => {
                    if records.is_empty() && seq <= after {
                        continue; // already in the snapshot
                    }
                    if seq <= last_seq {
                        return (
                            records,
                            Some(format!(
                                "record {} has sequence {seq} ≤ {last_seq}; stopped after seq {last_seq}",
                                i + 1
                            )),
                        );
                    }
                    last_seq = seq;
                    records.push((seq, delta));
                }
                Err(e) => {
                    return (
                        records,
                        Some(format!(
                            "record {} is invalid ({e}); stopped after seq {last_seq}",
                            i + 1
                        )),
                    );
                }
            }
        }
        (records, None)
    }
}

/// Validates a tenant name for use as a file stem and wire token:
/// non-empty ASCII alphanumerics, `-`, `_` only.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_relation::Value;

    const DEF: &str = "relation R(a, b)\nconcept C = 1, 2, 3";

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("whynot-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_then_wal_roundtrip() {
        let dir = tmpdir("roundtrip");
        let d = Durability::new(&dir);
        let def = parse_definition(DEF).unwrap();
        let r = def.schema.rel("R").unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![Value::int(1), Value::int(2)]);
        d.write_snapshot("t1", DEF, &def.schema, &inst, 3).unwrap();

        let mut delta = Delta::new();
        delta.insert(r, vec![Value::int(5), Value::int(6)]);
        d.append_wal("t1", &def.schema, 4, &delta).unwrap();

        let loaded = d.load("t1").unwrap();
        assert_eq!(loaded.snapshot_seq, 3);
        assert_eq!(loaded.instance.len(), 1);
        assert_eq!(loaded.wal.len(), 1);
        assert_eq!(loaded.wal[0].0, 4);
        assert!(loaded.wal_error.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_stops_replay_and_reports() {
        let dir = tmpdir("corrupt");
        let d = Durability::new(&dir);
        let def = parse_definition(DEF).unwrap();
        let r = def.schema.rel("R").unwrap();
        d.write_snapshot("t1", DEF, &def.schema, &Instance::new(), 0)
            .unwrap();
        let mut delta = Delta::new();
        delta.insert(r, vec![Value::int(1), Value::int(1)]);
        d.append_wal("t1", &def.schema, 1, &delta).unwrap();
        d.append_wal("t1", &def.schema, 2, &delta).unwrap();
        // Torn final write.
        let wal = dir.join("t1.wal");
        let mut text = std::fs::read_to_string(&wal).unwrap();
        text.push_str("{\"seq\":3,\"crc\":1,\"del");
        std::fs::write(&wal, text).unwrap();

        let loaded = d.load("t1").unwrap();
        assert_eq!(loaded.wal.len(), 2);
        let err = loaded.wal_error.unwrap();
        assert!(err.contains("stopped after seq 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_head_records_are_skipped_not_fatal() {
        // A crash after the snapshot rename but before the WAL unlink
        // leaves records the snapshot already holds at the head of the
        // log; every later acknowledged record must still replay.
        let dir = tmpdir("stale-head");
        let d = Durability::new(&dir);
        let def = parse_definition(DEF).unwrap();
        let r = def.schema.rel("R").unwrap();
        let delta_at = |n: i64| {
            let mut delta = Delta::new();
            delta.insert(r, vec![Value::int(n), Value::int(n)]);
            delta
        };
        for seq in 1..=3 {
            d.append_wal("t1", &def.schema, seq, &delta_at(seq as i64))
                .unwrap();
        }
        let wal = dir.join("t1.wal");
        let stale = std::fs::read_to_string(&wal).unwrap();
        d.write_snapshot("t1", DEF, &def.schema, &Instance::new(), 3)
            .unwrap();
        // Put the stale head back, then acknowledge seqs 4..=6 after it.
        std::fs::write(&wal, stale).unwrap();
        for seq in 4..=6 {
            d.append_wal("t1", &def.schema, seq, &delta_at(seq as i64))
                .unwrap();
        }

        let loaded = d.load("t1").unwrap();
        let seqs: Vec<u64> = loaded.wal.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        assert_eq!(loaded.wal[0].1, delta_at(4));
        assert!(loaded.wal_error.is_none(), "{:?}", loaded.wal_error);

        // Out of order after the head still stops replay.
        let mut text = std::fs::read_to_string(&wal).unwrap();
        text.push_str(&format!(
            "{}\n",
            delta_to_wal_line(&def.schema, 5, &delta_at(9))
        ));
        std::fs::write(&wal, text).unwrap();
        let loaded = d.load("t1").unwrap();
        assert_eq!(loaded.wal.len(), 3);
        let err = loaded.wal_error.unwrap();
        assert!(err.contains("stopped after seq 6"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_snapshot_is_rejected() {
        let dir = tmpdir("tamper");
        let d = Durability::new(&dir);
        let def = parse_definition(DEF).unwrap();
        d.write_snapshot("t1", DEF, &def.schema, &Instance::new(), 0)
            .unwrap();
        let snap = dir.join("t1.snap");
        let text = std::fs::read_to_string(&snap).unwrap();
        std::fs::write(&snap, text.replace("\"seq\":0", "\"seq\":7")).unwrap();
        assert!(matches!(d.load("t1"), Err(ServerError::Wal(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant_name("tenant-1_a"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("a/b"));
        assert!(!valid_tenant_name("a b"));
    }
}
