//! The one span join, and flamegraph aggregation over it.
//!
//! [`SpanJoin`] pairs `span_start` with `span_end` by id as the stream
//! goes by. `report`, `flame` (and so `slow`) and `timeline` all read
//! spans through it, so the rules live here once: a span is open from
//! its start until the end with its id, an end with no open start is
//! counted and skipped, and a span's path is the chain of its
//! still-open ancestors, recorded by id at start time (not text
//! heuristics). The join streams rather than storing a forest because
//! every output follows stream order: report labels and flame roots
//! appear in first-close order, and the timeline interleaves closed
//! spans with instants.
//!
//! [`FlameGraph`] folds the joined spans into a label hierarchy with
//! self/total wall time and per-span allocation accounting, exact even
//! when multiple bench threads interleave their events in one file.
//! Two renderings:
//!
//! * [`FlameGraph::render_tree`] — an ASCII tree with per-node count,
//!   total time, *self* time (total minus children), and allocated
//!   bytes, sorted by total time within each level;
//! * [`FlameGraph::render_folded`] — classic folded-stack lines
//!   (`a;b;c value`) consumable by `flamegraph.pl` / speedscope /
//!   inferno, with self-microseconds (default) or self-bytes as the
//!   value.

use crate::report::fmt_ns;
use disq_trace::{TraceEvent, TraceReader};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// What a `span_start` recorded; [`SpanJoin::add`] hands it back when
/// the span closes, and the caller reads the measurements off the
/// `span_end` it holds.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Span label.
    pub(crate) label: String,
    /// Free-form detail.
    pub(crate) detail: String,
    /// Enclosing span id, `None` at a root.
    pub(crate) parent: Option<u64>,
    /// Request id the span ran under (0 outside any request).
    pub(crate) req: u64,
    /// The caller's stamp for the `span_start` line, in µs.
    pub(crate) start_us: u64,
}

/// The streaming `span_start`/`span_end` join; feed events in stream
/// order.
#[derive(Debug, Clone, Default)]
pub struct SpanJoin {
    /// Open spans by id. Entries surviving the whole stream mean the
    /// trace was truncated.
    open: BTreeMap<u64, Span>,
    /// `span_end`s that matched no open span.
    pub unmatched_ends: usize,
}

impl SpanJoin {
    /// Folds one event: a `span_start` opens a span stamped `start_us`,
    /// and a matched `span_end` closes its span and returns it. Every
    /// other event, and an unmatched end, returns `None`.
    pub(crate) fn add(&mut self, event: &TraceEvent, start_us: u64) -> Option<Span> {
        match event {
            TraceEvent::SpanStart {
                id,
                parent,
                req,
                label,
                detail,
                ..
            } => {
                let span = Span {
                    label: label.clone(),
                    detail: detail.clone(),
                    parent: *parent,
                    req: *req,
                    start_us,
                };
                self.open.insert(*id, span);
                None
            }
            TraceEvent::SpanEnd { id, .. } => {
                let span = self.open.remove(id);
                self.unmatched_ends += usize::from(span.is_none());
                span
            }
            _ => None,
        }
    }

    /// Labels from the root down to `span`. Children close before
    /// parents, so a closed span's ancestors are all still open. The
    /// walk takes at most one step per open span, so a corrupt trace
    /// whose parents form a cycle cuts the path short instead of hanging.
    pub(crate) fn path<'a>(&'a self, span: &'a Span) -> Vec<&'a str> {
        let mut path = vec![span.label.as_str()];
        let mut cursor = span.parent;
        for _ in 0..self.open.len() {
            let Some(parent) = cursor.and_then(|c| self.open.get(&c)) else {
                break;
            };
            path.push(&parent.label);
            cursor = parent.parent;
        }
        path.reverse();
        path
    }

    /// Spans opened but never closed.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }
}

/// Aggregated totals of one node of the label tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlameNode {
    /// Span label (one path segment).
    pub label: String,
    /// Closed spans aggregated into this node.
    pub count: u64,
    /// Total wall time (self + children), summed over all closes.
    pub total_ns: u64,
    /// Heap bytes requested while open (self + children).
    pub alloc_bytes: u64,
    /// Allocation calls while open (self + children).
    pub allocs: u64,
    /// Crowd questions charged while open (self + children).
    pub questions: u64,
    /// Kernel-timer nanoseconds recorded while open (self + children).
    pub kernel_ns: u64,
    /// Child nodes in first-seen order.
    pub children: Vec<FlameNode>,
}

impl FlameNode {
    /// Wall time not attributed to any child (clamped at zero: parallel
    /// children on other threads can legitimately sum past the parent).
    pub fn self_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.children.iter().map(|c| c.total_ns).sum())
    }

    /// Allocation bytes not attributed to any child (clamped likewise).
    pub fn self_bytes(&self) -> u64 {
        self.alloc_bytes
            .saturating_sub(self.children.iter().map(|c| c.alloc_bytes).sum())
    }
}

/// The folded span hierarchy of one trace.
#[derive(Debug, Default)]
pub struct FlameGraph {
    /// Top-level spans (no open parent), in first-close order.
    pub roots: Vec<FlameNode>,
    /// The span join the hierarchy is folded from.
    pub spans: SpanJoin,
}

impl FlameGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the graph by draining `reader`.
    pub fn from_reader<R: BufRead>(reader: &mut TraceReader<R>) -> Self {
        let mut fg = FlameGraph::new();
        for event in reader {
            fg.add(&event);
        }
        fg
    }

    /// Folds one event into the hierarchy.
    pub fn add(&mut self, event: &TraceEvent) {
        let closed = self.spans.add(event, 0);
        if let (
            Some(span),
            TraceEvent::SpanEnd {
                dur_ns,
                alloc_bytes,
                allocs,
                questions,
                kernel_ns,
                ..
            },
        ) = (closed, event)
        {
            let node = descend(&mut self.roots, &self.spans.path(&span));
            node.count += 1;
            node.total_ns += dur_ns;
            node.alloc_bytes += alloc_bytes;
            node.allocs += allocs;
            node.questions += questions;
            node.kernel_ns += kernel_ns;
        }
    }

    /// ASCII tree, children sorted by total time (descending).
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>10} {:>10} {:>12} {:>9}",
            "span", "count", "total", "self", "alloc bytes", "questions"
        );
        let mut roots: Vec<&FlameNode> = self.roots.iter().collect();
        roots.sort_by_key(|n| std::cmp::Reverse(n.total_ns));
        for r in roots {
            render_node(&mut out, r, 0);
        }
        if self.spans.open_spans() > 0 {
            let _ = writeln!(
                out,
                "({} spans left open — truncated trace?)",
                self.spans.open_spans()
            );
        }
        if self.spans.unmatched_ends > 0 {
            let _ = writeln!(
                out,
                "({} unmatched span_ends skipped)",
                self.spans.unmatched_ends
            );
        }
        out
    }

    /// Folded stacks: one `a;b;c value` line per node, where value is
    /// self-microseconds (`bytes = false`) or self-allocated-bytes.
    pub fn render_folded(&self, bytes: bool) -> String {
        let mut out = String::new();
        for r in &self.roots {
            fold_node(&mut out, r, &mut Vec::new(), bytes);
        }
        out
    }
}

/// Walks/creates the node chain for `path`, returning the leaf.
fn descend<'a>(roots: &'a mut Vec<FlameNode>, path: &[&str]) -> &'a mut FlameNode {
    let (head, rest) = path.split_first().expect("non-empty path");
    let pos = match roots.iter().position(|n| n.label == *head) {
        Some(pos) => pos,
        None => {
            roots.push(FlameNode {
                label: head.to_string(),
                ..FlameNode::default()
            });
            roots.len() - 1
        }
    };
    if rest.is_empty() {
        &mut roots[pos]
    } else {
        descend(&mut roots[pos].children, rest)
    }
}

fn render_node(out: &mut String, node: &FlameNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let name = format!("{indent}{}", node.label);
    let _ = writeln!(
        out,
        "{:<44} {:>7} {:>10} {:>10} {:>12} {:>9}",
        name,
        node.count,
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns()),
        node.alloc_bytes,
        node.questions
    );
    let mut children: Vec<&FlameNode> = node.children.iter().collect();
    children.sort_by_key(|n| std::cmp::Reverse(n.total_ns));
    for c in children {
        render_node(out, c, depth + 1);
    }
}

fn fold_node(out: &mut String, node: &FlameNode, stack: &mut Vec<String>, bytes: bool) {
    stack.push(node.label.replace(';', ","));
    let value = if bytes {
        node.self_bytes()
    } else {
        node.self_ns() / 1000
    };
    if value > 0 || node.children.is_empty() {
        let _ = writeln!(out, "{} {value}", stack.join(";"));
    }
    for c in &node.children {
        fold_node(out, c, stack, bytes);
    }
    stack.pop();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, label: &str) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            tid: 1,
            req: 0,
            label: label.into(),
            detail: String::new(),
        }
    }

    fn end(id: u64, dur_ns: u64, bytes: u64, questions: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            id,
            tid: 1,
            dur_ns,
            alloc_bytes: bytes,
            allocs: bytes / 10,
            questions,
            kernel_ns: 0,
        }
    }

    fn sample() -> FlameGraph {
        let mut fg = FlameGraph::new();
        fg.add(&start(1, None, "preprocess"));
        fg.add(&start(2, Some(1), "examples"));
        fg.add(&end(2, 4_000_000, 1_000, 30));
        fg.add(&start(3, Some(1), "dismantle"));
        fg.add(&start(4, Some(3), "dismantle_round"));
        fg.add(&end(4, 1_000_000, 200, 5));
        fg.add(&start(5, Some(3), "dismantle_round"));
        fg.add(&end(5, 3_000_000, 300, 7));
        fg.add(&end(3, 5_000_000, 600, 12));
        fg.add(&end(1, 10_000_000, 2_000, 42));
        fg
    }

    #[test]
    fn hierarchy_and_self_time() {
        let fg = sample();
        assert_eq!(fg.roots.len(), 1);
        let pre = &fg.roots[0];
        assert_eq!(pre.label, "preprocess");
        assert_eq!(pre.count, 1);
        assert_eq!(pre.total_ns, 10_000_000);
        // self = 10ms − (4ms examples + 5ms dismantle) = 1ms.
        assert_eq!(pre.self_ns(), 1_000_000);
        let dismantle = pre
            .children
            .iter()
            .find(|c| c.label == "dismantle")
            .unwrap();
        // Two rounds aggregated into one node.
        assert_eq!(dismantle.children.len(), 1);
        assert_eq!(dismantle.children[0].count, 2);
        assert_eq!(dismantle.children[0].total_ns, 4_000_000);
        assert_eq!(dismantle.self_ns(), 1_000_000);
        assert_eq!(dismantle.self_bytes(), 100);
        assert_eq!(fg.spans.open_spans(), 0);
    }

    #[test]
    fn tree_rendering_contains_totals() {
        let text = sample().render_tree();
        assert!(text.contains("preprocess"), "{text}");
        assert!(text.contains("dismantle_round"), "{text}");
        assert!(text.contains("10.0ms"), "{text}");
        // Question totals surface.
        assert!(text.contains("42"), "{text}");
    }

    #[test]
    fn folded_output_is_parseable_stacks() {
        let folded = sample().render_folded(false);
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect(line);
            assert!(!stack.is_empty());
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
        assert!(
            folded.contains("preprocess;dismantle;dismantle_round 4000"),
            "{folded}"
        );
        // Self time for the parent chain appears too.
        assert!(folded.contains("preprocess;dismantle 1000"), "{folded}");
    }

    #[test]
    fn folded_bytes_mode() {
        let folded = sample().render_folded(true);
        assert!(folded.contains("preprocess;examples 1000"), "{folded}");
        assert!(folded.contains("preprocess;dismantle 100"), "{folded}");
    }

    #[test]
    fn truncation_and_unmatched_ends_reported() {
        let mut fg = FlameGraph::new();
        fg.add(&start(1, None, "a"));
        fg.add(&end(7, 1, 0, 0));
        assert_eq!(fg.spans.open_spans(), 1);
        assert_eq!(fg.spans.unmatched_ends, 1);
        let text = fg.render_tree();
        assert!(text.contains("left open"), "{text}");
        assert!(text.contains("unmatched"), "{text}");
    }

    /// A corrupt trace whose parents form a cycle yields a cut path, not
    /// a hang: first a self-parented span, then a two-span cycle.
    #[test]
    fn cyclic_parents_cut_the_path_instead_of_hanging() {
        let mut fg = FlameGraph::new();
        fg.add(&start(1, Some(1), "self"));
        fg.add(&end(1, 1_000, 0, 0));
        fg.add(&start(2, Some(3), "a"));
        fg.add(&start(3, Some(2), "b"));
        fg.add(&start(4, Some(2), "c"));
        fg.add(&end(4, 2_000, 0, 0));
        assert_eq!(fg.render_folded(false), "self 1\nb;a;c 2\n");
    }

    #[test]
    fn semicolons_in_labels_are_sanitized() {
        let mut fg = FlameGraph::new();
        fg.add(&start(1, None, "a;b"));
        fg.add(&end(1, 2_000, 0, 0));
        let folded = fg.render_folded(false);
        assert_eq!(folded.trim(), "a,b 2");
    }
}
