//! In-memory spans of the traced run: name, start, end and parent,
//! recorded around the benchmark's calls into each layer and written
//! out once when the run ends.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use vmprov_json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// A thread-safe span log with one time origin.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty log whose time origin is now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned by a panic");
        let items = spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::from(id)),
                ("name", Json::from(s.name.as_str())),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", Json::from(s.parent)),
            ])
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::arr(items).to_string_compact())
    }
}
