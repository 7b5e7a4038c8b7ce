//! In-memory spans recorded around calls into the program's layers,
//! their self times, and a trace-event JSON export.
//!
//! Nothing here reaches inside the program: a span brackets one call to
//! a public function from the benchmark's side of the boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer, `detail` qualifies it (a model
/// or report name), `job` ties every span of one job together.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    pub job: Option<u32>,
    /// The thread that made the call (0 = the benchmark's main thread,
    /// `1 + w` = pool worker `w`).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When disabled, [`Tracer::span`] only runs
/// its closure, so a traced and an untraced run execute the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    job: Option<u32>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Tracer {
        Tracer { enabled, origin, tid, job: None, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tags the spans opened from now on with job index `job`.
    pub fn set_job(&mut self, job: Option<u32>) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`/`detail`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
            tid: self.tid,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose interval was timed elsewhere (for example
    /// on a server thread), as a child of the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            detail: "",
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            job: self.job,
            tid: self.tid,
        };
        self.spans.push(span);
    }

    /// Takes the finished spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "taking spans while one is open");
        std::mem::take(&mut self.spans)
    }
}

/// Appends `more` to `all`, rebasing its parent indices.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals: call count, summed duration, summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Totals keyed by `(name, detail)`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTotal> {
    let mut out: BTreeMap<_, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry((s.name, s.detail)).or_default();
        t.calls += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `spans` as a trace-event JSON document (complete `X` events
/// in microseconds), loadable by Perfetto or `chrome://tracing`.
/// `job_names[j]` labels spans of job `j`.
pub fn trace_event_json(spans: &[Span], job_names: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = if s.detail.is_empty() {
            s.name.to_string()
        } else {
            format!("{}:{}", s.name, s.detail)
        };
        let job = s.job.and_then(|j| job_names.get(j as usize)).map_or("", String::as_str);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":\"{}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            escape(&name),
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            escape(job),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, detail: "", start_ns, end_ns, parent, job: None, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union 10..40 counts once.
            span("b", 20, 40, Some(0)),
            span("c", 50, 60, Some(0)),
            // A grandchild is subtracted from its parent only.
            span("d", 52, 55, Some(3)),
            // A child that outlives its parent is clipped to it.
            span("e", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10 - 10, 20, 20, 7, 3, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals[&("job", "")], LayerTotal { calls: 1, dur_ns: 100, self_ns: 50 });
        // Self times of a tree always sum to the root's interval when
        // children stay inside their parents.
        let nested =
            vec![span("r", 0, 10, None), span("x", 2, 5, Some(0)), span("y", 5, 9, Some(0))];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 3);
        t.set_job(Some(7));
        let v = t.span("outer", "", |t| t.span("inner", "MP", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[1].detail, spans[1].job, spans[1].tid), ("MP", Some(7), 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut all = vec![span("first", 0, 1, None)];
        append(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));

        let mut off = Tracer::new(false, origin, 0);
        assert_eq!(off.span("outer", "", |t| t.span("inner", "", |_| 5)), 5);
        assert!(off.take().is_empty());
    }

    #[test]
    fn trace_event_json_escapes_names() {
        let mut s = span("sim", 1_000, 3_500, None);
        s.detail = "MP";
        s.job = Some(0);
        let doc = trace_event_json(&[s], &["a\"b".to_string()]);
        let parsed = ff_harness::json::Json::parse(&doc).expect("valid JSON");
        let ev = &parsed.get("traceEvents").and_then(|e| e.as_arr()).expect("events")[0];
        assert_eq!(ev.get("name").and_then(|n| n.as_str()), Some("sim:MP"));
        assert_eq!(ev.get("dur").and_then(|d| d.as_f64()), Some(2.5));
        assert_eq!(
            ev.get("args").and_then(|a| a.get("job")).and_then(|j| j.as_str()),
            Some("a\"b")
        );
    }
}
