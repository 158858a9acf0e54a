//! In-memory span recorder for traced runs.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span: name, start, end, parent span and request id. Spans stay in
//! memory and are written out once the run ends, so recording costs two
//! clock reads and a push per span. Counts (pairs scored, candidates…)
//! are recorded at the same boundaries and attach to the innermost open
//! span.

use std::collections::BTreeMap;
use std::time::Instant;

use dehealth_service::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Request (operation) id shared by every span of one request.
    pub request: usize,
    /// Layer call name, `module.call`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall-clock seconds covered.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A count recorded at a layer boundary.
#[derive(Debug, Clone)]
pub struct Count {
    /// The innermost span open when it was recorded.
    pub span: Option<usize>,
    /// Counter name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    request: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Tag the spans recorded from now on with request id `request`.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    /// Run `f` inside a span called `name`, nested under the span that is
    /// open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Record a count against the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count { span: self.open.last().copied(), name, value });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One summary per span named `root`, in recording order.
    #[must_use]
    pub fn summarize(&self, root: &str) -> Vec<Summary> {
        let within = |mut span: Option<usize>, root_id: usize| {
            while let Some(id) = span {
                if id == root_id {
                    return true;
                }
                span = self.spans[id].parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == root)
            .map(|root_span| {
                let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
                let mut children = 0.0;
                for s in &self.spans[root_span.id + 1..] {
                    if s.start > root_span.end {
                        break;
                    }
                    if within(s.parent, root_span.id) {
                        *by_name.entry(s.name).or_default() += s.seconds();
                        if s.parent == Some(root_span.id) {
                            children += s.seconds();
                        }
                    }
                }
                let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
                for c in self.counts.iter().filter(|c| within(c.span, root_span.id)) {
                    *counts.entry(c.name).or_default() += c.value;
                }
                Summary {
                    request: root_span.request,
                    wall: root_span.seconds(),
                    self_seconds: root_span.seconds() - children,
                    by_name,
                    counts,
                }
            })
            .collect()
    }

    /// Every span and count as JSON, for the run's trace file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::int(s.id)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::int)),
                    ("request".into(), Json::int(s.request)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start".into(), Json::Num(s.start)),
                    ("end".into(), Json::Num(s.end)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("span".into(), c.span.map_or(Json::Null, Json::int)),
                    ("name".into(), Json::Str(c.name.into())),
                    ("value".into(), Json::Num(c.value)),
                ])
            })
            .collect();
        Json::Obj(vec![("spans".into(), Json::Arr(spans)), ("counts".into(), Json::Arr(counts))])
    }
}

/// What happened under one root span.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The root span's request id.
    pub request: usize,
    /// The root span's wall-clock seconds.
    pub wall: f64,
    /// Wall-clock seconds not covered by the root's direct children.
    pub self_seconds: f64,
    /// Summed seconds of every span nested under the root, by name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Summed counts recorded under the root, by name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Summed seconds of the spans called `name` (0 when none ran).
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Summed count `name` (0 when never recorded).
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_nest_and_attribute_self_time() {
        let mut t = Tracer::new();
        t.set_request(3);
        t.span("root", |t| {
            t.span("a", |t| {
                t.count("n", 2.0);
                t.span("b", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            });
            t.span("a", |t| t.count("n", 1.0));
        });
        t.span("a", |_| ());
        let s = t.summarize("root");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].request, 3);
        assert_eq!(s[0].count("n"), 3.0);
        assert!(s[0].seconds("b") > 0.0 && s[0].seconds("a") >= s[0].seconds("b"));
        assert!(s[0].self_seconds >= 0.0 && s[0].self_seconds <= s[0].wall);
        assert_eq!(t.spans().iter().filter(|s| s.name == "a").count(), 3);
    }
}
