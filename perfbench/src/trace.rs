//! In-memory spans for the traced run. Each load thread owns a
//! [`SpanBuf`]; spans are timestamped on one process-wide epoch, carry
//! their parent and the server's `request_id`, and are written out as
//! JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Span ids are unique across threads; 0 means "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub request_id: u64,
}

/// One thread's spans. Disabled buffers record nothing, so the untimed
/// bookkeeping is absent from untraced runs.
#[derive(Debug, Default)]
pub struct SpanBuf {
    enabled: bool,
    spans: Vec<Span>,
    /// Time spent inside [`SpanBuf::record`]: the work a traced run does
    /// that an untraced one does not.
    pub overhead: Duration,
}

impl SpanBuf {
    pub fn new(enabled: bool) -> SpanBuf {
        SpanBuf {
            enabled,
            ..SpanBuf::default()
        }
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes (0 when tracing is off).
    pub fn open(&self) -> u64 {
        if self.enabled {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a closed span from timestamps the caller already took
    /// for its own measurement; `id` is 0 or a reserved id. Returns the
    /// span's id.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        (start, end): (Instant, Instant),
        request_id: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let entered = Instant::now();
        let id = if id == 0 {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            id
        };
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
            request_id,
        });
        self.overhead += entered.elapsed();
        id
    }

    /// Moves `other`'s spans and overhead into this buffer.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
        self.overhead += other.overhead;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span, start-ordered, with times in
    /// microseconds since `epoch`.
    pub fn write_jsonl(&mut self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start, s.id));
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"request_id\":{}}}",
                s.id,
                s.parent,
                s.name,
                us(s.start),
                us(s.end),
                s.request_id
            )?;
        }
        out.flush()
    }
}
