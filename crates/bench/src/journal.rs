//! Crash-safe result journal and host-I/O fault matrix.
//!
//! A campaign (a `cs-bench` suite, a [`crate::Sweep`], a `cs-smith` or
//! `cs-chaos` seed campaign) is a set of independent tasks. The journal
//! is the one place a task's result is served from instead of being
//! recomputed: as each task completes, one self-describing record is
//! appended — through the hardened [`ArtifactStore`] — to an append-only
//! log in the `--resume <dir>` directory. Each record's id is the task's
//! full result key (everything that determines its result, built by
//! `runner::spec_key` or `CampaignOpts::seed_key`), so the same log
//! serves a campaign killed mid-flight (completed tasks replay, in-flight
//! ones re-run, and the final report is byte-identical to an
//! uninterrupted run) and any later campaign that asks for some of the
//! same tasks. Any number of campaigns can share one directory: a record
//! is only ever served to the task with exactly its key.
//! This is the paper's own thesis applied to the host runtime: track the
//! side effects of speculative (interruptible) work so the system can
//! recover to a consistent committed state (CleanupSpec, MICRO'19).
//!
//! ## Record framing
//!
//! One record per line: `{"crc":"<16-hex-fnv>","body":<body-json>}` where
//! the CRC is FNV-1a-64 over the exact body bytes. A torn tail line (the
//! usual SIGKILL artifact) or a bit-flipped line fails its CRC and is
//! dropped — i.e. treated as in-flight work to redo — rather than
//! corrupting the replay. A body carries the task id, a digest of the
//! payload (`vd`), and the payload itself (a canonical JSON document the
//! campaign knows how to replay, e.g. a `cs-snap` report or a fuzz
//! verdict). Any other line is dropped at replay.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use cleanupspec::snap::fnv1a64;
use cleanupspec_obs::{JsonValue, JsonWriter};

use crate::store::{
    shared_dir_store, ArtifactStore, DirStore, FaultFs, HostFaultKind, HostFaultPlan, StoreError,
};

/// File name of the journal inside a `--resume` directory.
pub const FILE: &str = "journal.csj";

/// Frames a record body with its CRC line prefix.
fn frame(body: &str) -> String {
    format!(
        "{{\"crc\":\"{:016x}\",\"body\":{body}}}",
        fnv1a64(body.as_bytes())
    )
}

/// Strips and verifies the CRC framing; `None` for torn or corrupt lines.
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"crc\":\"")?;
    let crc_hex = rest.get(..16)?;
    let body = rest
        .get(16..)?
        .strip_prefix("\",\"body\":")?
        .strip_suffix('}')?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == crc).then_some(body)
}

/// Reads one journal line: the `(id, payload)` of an intact task record,
/// or `None` for anything else (a torn or bit-flipped line, a payload
/// that fails its `vd` digest, a line of another kind).
///
/// Only the record's head is parsed. The payload is sliced out of the
/// body text verbatim — everything after `, "payload": ` minus the
/// record's single closing brace — and checked against its digest, so
/// opening a long log parses none of the payloads it may never serve.
fn read_line(line: &str) -> Option<(String, &str)> {
    let (head, rest) = unframe(line)?.split_once(", \"payload\": ")?;
    let payload = rest.strip_suffix('}')?;
    let v = JsonValue::parse(&format!("{head}}}")).ok()?;
    if v.get("kind").and_then(JsonValue::as_str) != Some("task") {
        return None;
    }
    let id = v.get("id").and_then(JsonValue::as_str)?;
    let vd = v.get("vd").and_then(JsonValue::as_str)?;
    (format!("{:016x}", fnv1a64(payload.as_bytes())) == vd).then(|| (id.to_string(), payload))
}

struct JournalState {
    completed: HashMap<String, String>,
    replayed: u64,
    dropped: u64,
}

/// An open result journal (see module docs). Thread-safe: sweep workers
/// record completions concurrently through one shared instance.
pub struct Journal {
    store: Arc<dyn ArtifactStore>,
    state: Mutex<JournalState>,
}

impl Journal {
    /// Opens (or starts) the journal in `store` and replays its intact
    /// task records. Every other line is dropped, so the task of a torn
    /// or corrupt record is treated as in-flight. When a log holds two
    /// records for one id, the later one wins (it was recorded after the
    /// earlier one was refused at replay). An unreadable journal gives a
    /// one-line warning and replays nothing.
    pub fn open(store: Arc<dyn ArtifactStore>) -> Journal {
        let mut state = JournalState {
            completed: HashMap::new(),
            replayed: 0,
            dropped: 0,
        };
        match store.get(FILE) {
            Err(StoreError::NotFound(_)) => {}
            Err(e) => eprintln!("warning: cannot read result journal ({e}); starting fresh"),
            Ok(bytes) => {
                for line in String::from_utf8_lossy(&bytes).lines() {
                    if line.is_empty() {
                        continue;
                    }
                    match read_line(line) {
                        Some((id, payload)) => {
                            state.completed.insert(id, payload.to_string());
                        }
                        None => state.dropped += 1,
                    }
                }
                state.replayed = state.completed.len() as u64;
            }
        }
        Journal {
            store,
            state: Mutex::new(state),
        }
    }

    /// Opens the journal of a `--resume` directory through the
    /// process-wide store for `dir` ([`shared_dir_store`]).
    pub fn in_dir(dir: &Path) -> Journal {
        Journal::open(shared_dir_store(dir))
    }

    /// The replayed payload for a completed task, if any.
    pub fn completed(&self, id: &str) -> Option<String> {
        self.state
            .lock()
            .expect("journal lock")
            .completed
            .get(id)
            .cloned()
    }

    /// Records a completed task. `payload` must be a single-line JSON
    /// document. Re-recording an id with the payload it already holds
    /// is a no-op, so served tasks can be re-recorded harmlessly; a
    /// different payload (the fresh result of a task whose journaled one
    /// was refused) is appended and wins from then on.
    pub fn record(&self, id: &str, payload: &str) {
        debug_assert!(!payload.contains('\n'), "journal payloads are single-line");
        {
            let mut st = self.state.lock().expect("journal lock");
            if st.completed.get(id).map(String::as_str) == Some(payload) {
                return;
            }
            st.completed.insert(id.to_string(), payload.to_string());
        }
        let mut w = JsonWriter::new();
        w.open_object(None)
            .string("kind", "task")
            .string("id", id)
            .string("vd", &format!("{:016x}", fnv1a64(payload.as_bytes())))
            .close_object();
        let head = w.finish();
        let head = head.strip_suffix('}').expect("object body");
        let body = format!("{head}, \"payload\": {payload}}}");
        if let Err(e) = self.store.append_line(FILE, &frame(&body)) {
            eprintln!("warning: cannot append to result journal: {e}");
        }
    }

    /// Number of completed tasks replayed when the journal was opened.
    pub fn replayed(&self) -> u64 {
        self.state.lock().expect("journal lock").replayed
    }

    /// Number of lines dropped during replay (torn, corrupt, or not a
    /// task record).
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("journal lock").dropped
    }
}

// ---------------------------------------------------------------------------
// Host-I/O fault detection/recovery matrix
// ---------------------------------------------------------------------------

/// One row of the host fault matrix: what a fault class did and how the
/// durable runtime absorbed it.
#[derive(Debug, Clone)]
pub struct HostMatrixRow {
    /// The injected fault class.
    pub kind: HostFaultKind,
    /// How many times it fired during the scenario.
    pub fires: u64,
    /// How the runtime recovered (`retried`, `degraded`, `quarantined`,
    /// `treated-as-miss`, `recovered-on-restart`).
    pub recovery: String,
    /// Whether the class was fully handled: fault fired, recovery path
    /// engaged, no journal corruption, no completed-task result lost.
    pub handled: bool,
}

/// Runs the standard durability scenario once per [`HostFaultKind`] and
/// classifies the outcome — the host-side sibling of
/// [`crate::detection_matrix`]. The scenario: a healthy campaign
/// directory holding a completed artifact and a journal with one
/// completed task, then a faulting store exercising the artifact-put,
/// journal-append, and artifact-read sites. Every row additionally
/// verifies two invariants against a fresh healthy store: the journal
/// still replays the pre-fault completed task intact, and the pre-fault
/// artifact is still served byte-for-byte.
pub fn host_fault_matrix(seed: u64) -> Vec<HostMatrixRow> {
    HostFaultKind::ALL
        .iter()
        .map(|&kind| run_host_fault_scenario(kind, seed))
        .collect()
}

const PRIOR_PAYLOAD: &[u8] = b"{\"prior\": 1}";
const T0_PAYLOAD: &str = "{\"verdict\": \"pass\"}";
const T1_PAYLOAD: &str = "{\"verdict\": \"fail\"}";
const TASK1_PAYLOAD: &[u8] = b"{\"task\": 1}";

fn run_host_fault_scenario(kind: HostFaultKind, seed: u64) -> HostMatrixRow {
    let dir = std::env::temp_dir().join(format!(
        "cs-host-matrix-{}-{}-{:x}",
        kind.name(),
        std::process::id(),
        fnv1a64(&seed.to_le_bytes())
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1 — healthy history: one durable artifact and one journaled
    // completed task, written before any fault exists.
    {
        let healthy: Arc<DirStore> = Arc::new(DirStore::new(&dir));
        healthy.put("prior.json", PRIOR_PAYLOAD).expect("prior put");
        let j = Journal::open(healthy);
        j.record("t0", T0_PAYLOAD);
    }

    // Phase 2 — the same campaign continues on a faulting filesystem,
    // exercising the put, journal-append, and read sites. The firing
    // point is pinned per kind so the fault deterministically hits the
    // artifact-put path (seeded plans are exercised separately by the
    // durability property tests): operation 0 of each class belongs to
    // the `task1.json` put / first read, except CrashAfterWrite, which
    // fires after the first *complete* put (the payload is committed by
    // write op 0's rename; write op 1 is its sidecar) so "crash then
    // restart" has durable work to recover.
    let fire_at = u64::from(kind == HostFaultKind::CrashAfterWrite);
    let faulty = Arc::new(FaultFs::new(&dir, HostFaultPlan { kind, fire_at }));
    let put_ok = faulty.put("task1.json", TASK1_PAYLOAD).is_ok();
    let task1_back = faulty.get("task1.json");
    let prior_back = faulty.get("prior.json");
    Journal::open(Arc::clone(&faulty) as Arc<dyn ArtifactStore>).record("t1", T1_PAYLOAD);
    let fires = faulty.fires();
    let stats = faulty.stats();
    let degraded = faulty.is_degraded();

    // Phase 3 — restart against the same directory with a healthy store:
    // nothing from the pre-fault history may be lost or corrupted.
    let fresh: Arc<DirStore> = Arc::new(DirStore::new(&dir));
    let t0_survives = Journal::open(Arc::clone(&fresh) as Arc<dyn ArtifactStore>)
        .completed("t0")
        .as_deref()
        == Some(T0_PAYLOAD);
    let prior_survives = fresh.get("prior.json").ok().as_deref() == Some(PRIOR_PAYLOAD);
    let history_intact = t0_survives && prior_survives;

    let (recovery, class_ok) = match kind {
        HostFaultKind::TransientWrite | HostFaultKind::TornWrite => (
            "retried",
            stats.retried_ok >= 1
                && !degraded
                && put_ok
                && task1_back.as_deref().ok() == Some(TASK1_PAYLOAD),
        ),
        HostFaultKind::Enospc | HostFaultKind::FsyncFail | HostFaultKind::RenameFail => (
            "degraded",
            // The store fell back to memory without losing the write.
            degraded && put_ok && task1_back.as_deref().ok() == Some(TASK1_PAYLOAD),
        ),
        HostFaultKind::BitRot => (
            "quarantined",
            // The rot is silent at write time; the win is that no reader
            // is ever served the corrupt bytes. Depending on where the
            // rot landed it is either quarantined on first read or (for
            // a rotten journal line) dropped by the CRC framing.
            match fresh.get("task1.json") {
                Err(StoreError::Corrupt { .. }) => true,
                Err(StoreError::NotFound(_)) => true, // already quarantined above
                Ok(bytes) => bytes == TASK1_PAYLOAD,  // rot hit a journal line instead
                Err(_) => false,
            },
        ),
        HostFaultKind::ReadEio => (
            "treated-as-miss",
            // Failed reads surface as errors (a cache miss to callers),
            // never as fabricated data.
            matches!(prior_back, Err(StoreError::Io { .. }))
                || matches!(task1_back, Err(StoreError::Io { .. })),
        ),
        HostFaultKind::CrashAfterWrite => (
            "recovered-on-restart",
            // The pre-crash completed put is durable and the restart saw
            // it (checked via history_intact plus the durable task1).
            fresh.get("task1.json").ok().as_deref() == Some(TASK1_PAYLOAD),
        ),
    };

    let row = HostMatrixRow {
        kind,
        fires,
        recovery: recovery.to_string(),
        handled: fires >= 1 && class_ok && history_intact,
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Renders the host fault matrix as an aligned text table (the
/// `cs-chaos --host-matrix` output).
pub fn render_host_matrix(rows: &[HostMatrixRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>5}  {:<22} {}\n",
        "fault", "fires", "recovery", "handled"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>5}  {:<22} {}\n",
            r.kind.name(),
            r.fires,
            r.recovery,
            if r.handled { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let body = "{\"kind\": \"task\", \"id\": \"x\"}";
        let line = frame(body);
        assert_eq!(unframe(&line), Some(body));
        // Flip a byte in the body → CRC mismatch.
        let evil = line.replace("task", "tosk");
        assert_eq!(unframe(&evil), None);
        // Torn tail → no match.
        assert_eq!(unframe(&line[..line.len() - 3]), None);
        assert_eq!(unframe(""), None);
    }

    #[test]
    fn fresh_journal_records_and_replays() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let j = Journal::open(Arc::clone(&store));
        assert_eq!(j.replayed(), 0);
        j.record("t1", "{\"v\": 1}");
        j.record("t2", "{\"v\": 2}");
        j.record("t1", "{\"v\": 1}"); // same payload again: no new line
        drop(j);
        let lines = String::from_utf8(store.get(FILE).unwrap()).unwrap();
        assert_eq!(lines.lines().count(), 2);
        let j2 = Journal::open(store);
        assert_eq!(j2.replayed(), 2);
        assert_eq!(j2.completed("t1").as_deref(), Some("{\"v\": 1}"));
        assert_eq!(j2.completed("t2").as_deref(), Some("{\"v\": 2}"));
        assert_eq!(j2.completed("t3"), None);
        assert_eq!(j2.dropped(), 0);
    }

    /// A task whose journaled result was refused is re-run and recorded
    /// again; the later record is the one served from then on.
    #[test]
    fn a_rerecorded_task_is_served_its_latest_payload() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        Journal::open(Arc::clone(&store)).record("t1", "{\"v\": 1e1}");
        let j = Journal::open(Arc::clone(&store));
        assert_eq!(j.completed("t1").as_deref(), Some("{\"v\": 1e1}"));
        j.record("t1", "{\"v\": 10}");
        assert_eq!(j.completed("t1").as_deref(), Some("{\"v\": 10}"));
        let j2 = Journal::open(store);
        assert_eq!(j2.completed("t1").as_deref(), Some("{\"v\": 10}"));
        assert_eq!(j2.replayed(), 1);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let j = Journal::open(Arc::clone(&store));
        j.record("t1", "{\"v\": 1}");
        j.record("t2", "{\"v\": 2}");
        drop(j);
        // Simulate SIGKILL mid-append: truncate the last line.
        let mut bytes = store.get(FILE).unwrap();
        bytes.truncate(bytes.len() - 10);
        // Rewrite the journal with a torn tail (MemStore put replaces).
        store.put(FILE, &bytes).unwrap();
        let j2 = Journal::open(store);
        assert_eq!(j2.replayed(), 1, "t2's torn record treated as in-flight");
        assert!(j2.completed("t1").is_some());
        assert!(j2.completed("t2").is_none());
        assert_eq!(j2.dropped(), 1);
    }

    /// A record whose CRC holds but whose payload fails its `vd` digest
    /// is dropped, not served.
    #[test]
    fn payload_digest_mismatch_is_dropped() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let body = "{\"kind\": \"task\", \"id\": \"t1\", \"vd\": \"0000000000000000\", \
                    \"payload\": {\"v\": 1}}";
        store.append_line(FILE, &frame(body)).unwrap();
        let j = Journal::open(store);
        assert_eq!(j.completed("t1"), None);
        assert_eq!(j.dropped(), 1);
    }

    /// A line that is not a task record (such as the campaign header
    /// older logs start with) is dropped without disturbing the replay.
    #[test]
    fn a_line_of_another_kind_is_dropped() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let header = "{\"format\": \"cs-journal-v1\", \"kind\": \"header\", \
                      \"campaign\": \"seed-campaign\", \"config\": \"start=0x0 count=8\"}";
        store.append_line(FILE, &frame(header)).unwrap();
        Journal::open(Arc::clone(&store)).record("t1", "{\"v\": 1}");
        let j = Journal::open(store);
        assert_eq!((j.replayed(), j.dropped()), (1, 1));
        assert_eq!(j.completed("t1").as_deref(), Some("{\"v\": 1}"));
    }

    #[test]
    fn payload_with_nested_objects_survives_replay() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let j = Journal::open(Arc::clone(&store));
        let payload = "{\"a\": {\"b\": [1, 2, {\"c\": \"x}y\"}]}, \"d\": 4}";
        j.record("deep", payload);
        drop(j);
        let j2 = Journal::open(store);
        assert_eq!(j2.completed("deep").as_deref(), Some(payload));
    }

    #[test]
    fn host_matrix_all_classes_handled() {
        let rows = host_fault_matrix(42);
        assert_eq!(rows.len(), HostFaultKind::ALL.len());
        for r in &rows {
            assert!(r.fires >= 1, "{} never fired", r.kind.name());
            assert!(
                r.handled,
                "{} not handled: recovery={} fires={}",
                r.kind.name(),
                r.recovery,
                r.fires
            );
        }
    }
}
