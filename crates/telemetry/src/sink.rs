//! The two concrete collectors: [`InMemory`] (tests, auditing) and [`Jsonl`]
//! (streaming export). "Noop" is not a type — it is the absence of any
//! installed collector, which every emission entry point checks first.

use crate::collector::Collector;
use crate::event::Event;
use serde_json::to_string;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Events per [`InMemory`] chunk.
const CHUNK: usize = 1024;

/// Collector buffering every event in memory, for tests and the leakage
/// auditor. Events are kept in fixed-capacity chunks, so recording one never
/// moves those already held: a single growing `Vec` would copy the whole trace
/// each time it doubles, inside whichever span happens to be closing, and that
/// host time would land on its parent as unattributed self time.
#[derive(Default)]
pub struct InMemory {
    chunks: Mutex<Vec<Vec<Event>>>,
}

impl InMemory {
    /// Fresh, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events recorded so far, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.chunks
            .lock()
            .expect("telemetry buffer poisoned")
            .concat()
    }

    /// Drain and return the recorded events.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.chunks.lock().expect("telemetry buffer poisoned")).concat()
    }
}

impl Collector for InMemory {
    fn record(&self, event: Event) {
        let mut chunks = self.chunks.lock().expect("telemetry buffer poisoned");
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(event),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(event);
                chunks.push(chunk);
            }
        }
    }
}

/// Collector streaming one JSON object per line to a file — the
/// `INCSHRINK_TRACE=path` export format consumed by `bench --bin trace_dump`.
pub struct Jsonl {
    writer: Mutex<BufWriter<File>>,
}

impl Jsonl {
    /// Create (truncating) the trace file at `path`.
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Create a JSONL collector at the path named by the `INCSHRINK_TRACE`
    /// environment variable, or `None` when the variable is unset or empty.
    ///
    /// # Errors
    /// Propagates the file-creation error when the variable is set but the
    /// path cannot be created.
    pub fn from_env() -> std::io::Result<Option<Self>> {
        match std::env::var("INCSHRINK_TRACE") {
            Ok(path) if !path.trim().is_empty() => Ok(Some(Self::create(path.trim())?)),
            _ => Ok(None),
        }
    }
}

impl Collector for Jsonl {
    fn record(&self, event: Event) {
        let Ok(line) = to_string(&event) else {
            return;
        };
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        // Trace export is best-effort: a full disk must not abort the run.
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("trace writer poisoned").flush();
    }
}

impl Drop for Jsonl {
    fn drop(&mut self) {
        Collector::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, observe, ObserveKind};
    use std::sync::Arc;

    fn scratch_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "incshrink-telemetry-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let path = scratch_path("sink");
        {
            let sink = Arc::new(Jsonl::create(&path).expect("create trace"));
            let _guard = install(sink);
            observe(ObserveKind::UploadBatch, 1, 3);
            observe(ObserveKind::ViewSync, 2, 5);
        }
        let contents = std::fs::read_to_string(&path).expect("read trace");
        let events: Vec<Event> = contents
            .lines()
            .map(|l| Event::from_json_line(l).expect("valid line"))
            .collect();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_env_is_none_when_unset() {
        // INCSHRINK_TRACE is not set under `cargo test`.
        assert!(Jsonl::from_env().expect("no io error").is_none());
    }
}
