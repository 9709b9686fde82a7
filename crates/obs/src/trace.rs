//! Structured event tracing: a bounded ring of typed events with
//! tick/shard/session context, drained as JSON lines.
//!
//! The ring is for *control-plane* events — admissions, restarts,
//! checkpoints, migrations — which happen orders of magnitude less often
//! than ticks, so a mutex-guarded ring is plenty: pushing is one lock,
//! one enum write, no allocation beyond an optional detail string the
//! caller already built. When the ring is full the oldest event is
//! overwritten and a drop counter records the loss, so a stalled scraper
//! can never grow the producer's memory.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened. The variants cover the instrumented layers; `Custom`
/// keeps the ring open to callers without an obs release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A dedicated session was admitted.
    Admit,
    /// A pooled group was admitted.
    AdmitGroup,
    /// A session left (or was drained on connection close).
    Leave,
    /// A shard worker was restarted from checkpoint + journal replay.
    ShardRestart,
    /// A shard checkpoint was accepted by the driver.
    Checkpoint,
    /// A fleet live migration completed.
    Migration,
    /// A fleet migration failed and the lease was granted back.
    LeaseFailure,
    /// A fleet ctrl process was respawned: restored from its latest image
    /// and replayed the ops journaled since.
    Respawn,
    /// A fleet placement decision.
    Placement,
    /// Anything else; the string becomes the JSON `kind`.
    Custom(&'static str),
}

impl TraceKind {
    /// The JSON `kind` value.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Admit => "admit",
            TraceKind::AdmitGroup => "admit_group",
            TraceKind::Leave => "leave",
            TraceKind::ShardRestart => "shard_restart",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Migration => "migration",
            TraceKind::LeaseFailure => "lease_failure",
            TraceKind::Respawn => "respawn",
            TraceKind::Placement => "placement",
            TraceKind::Custom(s) => s,
        }
    }
}

/// One traced event. `seq` is assigned by the ring at push time and is
/// monotone across the ring's lifetime, so a consumer can detect drops
/// even without reading the drop counter.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotone sequence number (assigned at push).
    pub seq: u64,
    /// The control-plane tick the event happened at.
    pub tick: u64,
    /// Shard context, when the event is shard-scoped.
    pub shard: Option<u32>,
    /// Session context, when the event is session-scoped.
    pub session: Option<u64>,
    /// What happened.
    pub kind: TraceKind,
    /// Free-form detail (already built by the caller; empty is common).
    pub detail: String,
}

impl TraceEvent {
    /// A minimally filled event at `tick`; context setters chain.
    pub fn at(tick: u64, kind: TraceKind) -> Self {
        TraceEvent {
            seq: 0,
            tick,
            shard: None,
            session: None,
            kind,
            detail: String::new(),
        }
    }

    /// Attaches shard context.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Attaches session context.
    pub fn session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Attaches detail text.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.detail.len());
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"tick\":");
        out.push_str(&self.tick.to_string());
        if let Some(shard) = self.shard {
            out.push_str(",\"shard\":");
            out.push_str(&shard.to_string());
        }
        if let Some(session) = self.session {
            out.push_str(",\"session\":");
            out.push_str(&session.to_string());
        }
        out.push_str(",\"kind\":\"");
        json_escape_into(&mut out, self.kind.as_str());
        out.push('"');
        if !self.detail.is_empty() {
            out.push_str(",\"detail\":\"");
            json_escape_into(&mut out, &self.detail);
            out.push('"');
        }
        out.push('}');
        out
    }
}

fn json_escape_into(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

struct RingInner {
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded trace ring. Shared via `Arc`; all methods take `&self`.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceRing(capacity {})", self.capacity)
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Pushes one event, overwriting the oldest when full. Returns the
    /// assigned sequence number.
    pub fn push(&self, mut event: TraceEvent) -> u64 {
        let Ok(mut inner) = self.inner.lock() else {
            return 0;
        };
        let seq = inner.next_seq;
        inner.next_seq += 1;
        event.seq = seq;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
        seq
    }

    /// Events overwritten before being drained.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().map(|i| i.dropped).unwrap_or(0)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|i| i.buf.len()).unwrap_or(0)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .map(|mut i| i.buf.drain(..).collect())
            .unwrap_or_default()
    }

    /// Drains the ring as newline-terminated JSON objects, oldest first
    /// (the `GET /trace` body).
    pub fn drain_json_lines(&self) -> String {
        let events = self.drain();
        let mut out = String::with_capacity(events.len() * 80);
        for event in &events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_lines_in_order() {
        let ring = TraceRing::new(8);
        ring.push(TraceEvent::at(5, TraceKind::Admit).shard(1).session(42));
        ring.push(
            TraceEvent::at(6, TraceKind::ShardRestart)
                .shard(1)
                .detail("queue stalled"),
        );
        let lines = ring.drain_json_lines();
        let mut it = lines.lines();
        assert_eq!(
            it.next().unwrap(),
            "{\"seq\":0,\"tick\":5,\"shard\":1,\"session\":42,\"kind\":\"admit\"}"
        );
        assert_eq!(
            it.next().unwrap(),
            "{\"seq\":1,\"tick\":6,\"shard\":1,\"kind\":\"shard_restart\",\"detail\":\"queue stalled\"}"
        );
        assert!(it.next().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = TraceRing::new(2);
        for t in 0..5 {
            ring.push(TraceEvent::at(t, TraceKind::Leave));
        }
        assert_eq!(ring.dropped(), 3);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3, "oldest surviving event");
        assert_eq!(events[1].seq, 4);
    }

    #[test]
    fn detail_escapes_json_metacharacters() {
        let ring = TraceRing::new(2);
        ring.push(TraceEvent::at(0, TraceKind::Custom("x")).detail("a\"b\\c\nd"));
        let line = ring.drain_json_lines();
        assert!(line.contains("\"detail\":\"a\\\"b\\\\c\\nd\""));
    }
}
