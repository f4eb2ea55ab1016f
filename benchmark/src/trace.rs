//! In-memory span recording at the layer boundaries the benchmark can reach
//! from outside the library, and the self-time arithmetic over those spans.
//!
//! Spans are kept in memory and written out once, when the run ends. A span's
//! parent is the span that was open on the same thread when it started;
//! spans recorded on the registry server's threads have no such parent and
//! are adopted afterwards by the client call whose interval contains them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary. `parent` 0 means none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Blob bytes the call moved, where the boundary knows them.
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects the spans of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            bytes: 0,
            start_ns: self.now_ns(),
        }
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicked recorder"),
        )
    }
}

/// An open span; see [`Tracer::span`].
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    bytes: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.remove(at);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            bytes: self.bytes,
        };
        // A poisoned list means a recorder panicked; the run is failing anyway.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// How many orphans a span may adopt in [`adopt_by_containment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adopts {
    /// The call causes exactly one call on the other side.
    One,
    /// The call causes any number of calls on the other side.
    Many,
}

/// Gives the parentless spans `orphan` selects a parent on another thread:
/// the tightest other span that contains the orphan's interval and that
/// `adopts` lets take it. With several clients in flight an interval can sit
/// inside more than one caller; `adopts` narrows that by saying which callee
/// a caller can cause at all, and a caller that causes one callee stops
/// taking more after its first. Returns how many orphans stayed parentless.
pub fn adopt_by_containment(
    spans: &mut [Span],
    orphan: impl Fn(&Span) -> bool,
    adopts: impl Fn(&Span, &Span) -> Option<Adopts>,
) -> usize {
    // Possible parents, by start; the longest bounds how far back to look.
    let mut callers: Vec<usize> = (0..spans.len()).filter(|&i| !orphan(&spans[i])).collect();
    callers.sort_unstable_by_key(|&i| spans[i].start_ns);
    let longest = callers
        .iter()
        .map(|&i| spans[i].duration_ns())
        .max()
        .unwrap_or(0);
    let mut full = vec![false; spans.len()];
    let mut orphans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent == 0 && orphan(&spans[i]))
        .collect();
    orphans.sort_unstable_by_key(|&i| spans[i].start_ns);
    let mut unparented = 0;
    for o in orphans {
        // Walking back through earlier starts, the first fit is the tightest.
        let upto = callers.partition_point(|&a| spans[a].start_ns <= spans[o].start_ns);
        let mut found = None;
        for &a in callers[..upto].iter().rev() {
            if spans[a].start_ns + longest < spans[o].start_ns {
                break;
            }
            if full[a] || spans[a].end_ns < spans[o].end_ns || spans[a].thread == spans[o].thread {
                continue;
            }
            if let Some(capacity) = adopts(&spans[a], &spans[o]) {
                found = Some((a, capacity));
                break;
            }
        }
        match found {
            Some((a, capacity)) => {
                spans[o].parent = spans[a].id;
                full[a] = capacity == Adopts::One;
            }
            None => unparented += 1,
        }
    }
    unparented
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// The layer a span belongs to: the part of its name before the first dot.
fn layer_of(span: &Span) -> &'static str {
    span.name.split('.').next().unwrap_or(span.name)
}

/// What one layer contributed to the tree under an operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSum {
    pub self_ns: u64,
    pub spans: u64,
    pub bytes: u64,
}

/// Per-layer sums over the tree under `root`, `root` included. Without
/// overlapping siblings the self times add up to `root`'s duration.
pub fn tree_by_layer(
    root: &Span,
    children: &BTreeMap<u64, Vec<&Span>>,
    self_ns: &BTreeMap<u64, u64>,
) -> BTreeMap<&'static str, LayerSum> {
    let mut out: BTreeMap<&'static str, LayerSum> = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(span) = stack.pop() {
        let sum = out.entry(layer_of(span)).or_default();
        sum.self_ns += self_ns.get(&span.id).copied().unwrap_or(0);
        sum.spans += 1;
        sum.bytes += span.bytes;
        if let Some(kids) = children.get(&span.id) {
            stack.extend(kids.iter().copied());
        }
    }
    out
}

/// Index from parent id to child spans.
pub fn children_of(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    children
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start\":{},\"end\":{},\"bytes\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread,
            start_ns: start,
            end_ns: end,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let spans = vec![
            span(1, 0, "core.save", 1, 0, 100),
            // Two siblings, then one that overlaps the second.
            span(2, 1, "store.get_doc", 1, 10, 20),
            span(3, 1, "store.commit_batch", 1, 30, 60),
            span(4, 1, "store.put_file", 1, 50, 70),
            // A grandchild only reduces its own parent.
            span(5, 3, "disk.sync", 1, 35, 45),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[&1], 100 - 10 - 40);
        assert_eq!(self_ns[&2], 10);
        assert_eq!(self_ns[&3], 30 - 10);
        assert_eq!(self_ns[&4], 20);
        assert_eq!(self_ns[&5], 10);

        // Layer self times of one op add up to its wall time when children
        // do not overlap; the overlap above is counted once in the parent
        // and in full in each child.
        let children = children_of(&spans);
        let by_layer = tree_by_layer(&spans[0], &children, &self_ns);
        assert_eq!(
            by_layer["core"],
            LayerSum {
                self_ns: 50,
                spans: 1,
                bytes: 0
            }
        );
        assert_eq!(
            by_layer["store"],
            LayerSum {
                self_ns: 10 + 20 + 20,
                spans: 3,
                bytes: 0
            }
        );
        assert_eq!(
            by_layer["disk"],
            LayerSum {
                self_ns: 10,
                spans: 1,
                bytes: 0
            }
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(1, 0, "net.get_file", 1, 10, 20),
            span(2, 1, "store.get_file", 2, 5, 15),
        ];
        assert_eq!(self_times_ns(&spans)[&1], 5);
    }

    fn by_method(adopter: &Span, orphan: &Span) -> Option<Adopts> {
        match (adopter.name, orphan.name) {
            ("net.commit_batch", "store.insert_doc" | "store.put_file") => Some(Adopts::Many),
            ("lineage.query", "store.get_doc") => Some(Adopts::Many),
            ("net.get_doc", "store.get_doc") => Some(Adopts::One),
            _ => None,
        }
    }

    #[test]
    fn orphans_are_adopted_by_the_tightest_containing_call_that_can_cause_them() {
        let mut spans = vec![
            span(1, 0, "core.save", 1, 0, 100),
            span(2, 1, "net.commit_batch", 1, 10, 90),
            span(3, 0, "lineage.query", 3, 20, 95),
            span(4, 0, "net.get_doc", 4, 40, 60),
            // Inside all three callers: the save's own writes ...
            span(5, 0, "store.insert_doc", 2, 42, 44),
            span(6, 0, "store.put_file", 2, 45, 55),
            // ... one read for the one-to-one get_doc, the rest for the query.
            span(7, 0, "store.get_doc", 5, 46, 48),
            span(8, 0, "store.get_doc", 5, 50, 52),
            // Outside every caller.
            span(9, 0, "store.get_doc", 5, 96, 120),
        ];
        let unparented =
            adopt_by_containment(&mut spans, |s| s.name.starts_with("store."), by_method);
        assert_eq!(unparented, 1);
        let parent = |id: u64| spans.iter().find(|s| s.id == id).unwrap().parent;
        assert_eq!((parent(5), parent(6)), (2, 2));
        assert_eq!((parent(7), parent(8)), (4, 3));
        assert_eq!(parent(9), 0);
    }

    #[test]
    fn a_span_is_never_adopted_on_its_own_thread() {
        let mut spans = vec![
            span(1, 0, "net.get_doc", 1, 0, 10),
            span(2, 0, "store.get_doc", 1, 2, 4),
        ];
        assert_eq!(
            adopt_by_containment(&mut spans, |s| s.name.starts_with("store."), by_method),
            1
        );
    }

    #[test]
    fn guards_nest_by_thread_and_record_bytes() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("core.save");
            let mut inner = tracer.span("store.put_file");
            inner.set_bytes(7);
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!((inner.name, inner.bytes), ("store.put_file", 7));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(tracer.take().is_empty());
    }
}
