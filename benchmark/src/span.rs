//! In-memory spans around the harness's calls into each layer. Kept in
//! memory for the whole run and written out once, at exit.

use std::time::Instant;

use metrics::Json;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Spans of one pass share an identifier.
    pub pass: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span begun from now on belongs to the next pass.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Run `f` inside a span called `name`, a child of whichever span is
    /// open now. Returns `f`'s result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, self.seconds(id))
    }

    /// A finished span from timestamps taken elsewhere (a callback inside
    /// the program), as a child of the span open now.
    pub fn add_closed(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
    }

    /// Nanoseconds since this recorder was made, for `add_closed`.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Seconds of the first span called `name`.
    pub fn seconds_of(&self, name: &str) -> Option<f64> {
        let id = self.spans.iter().position(|s| s.name == name)?;
        Some(self.seconds(id))
    }

    /// Seconds of the first span called `name` that none of its child
    /// spans cover.
    pub fn self_seconds_of(&self, name: &str) -> Option<f64> {
        let id = self.spans.iter().position(|s| s.name == name)?;
        Some(self_ns(&self.spans, id) as f64 / 1e9)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut o = Json::object();
                    o.push("id", id as u64)
                        .push("name", s.name)
                        .push("pass", u64::from(s.pass))
                        .push("parent", s.parent.map(|p| p as u64))
                        .push("start_ns", s.start_ns)
                        .push("end_ns", s.end_ns)
                        .push("self_ns", self_ns(&self.spans, id));
                    o
                })
                .collect(),
        )
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children never overlap: the harness is single-threaded between spans.
fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (spans[id].end_ns - spans[id].start_ns).saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100): a [10,40) with a nested grandchild [15,25), b [50,90).
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 40, "siblings both count");
        assert_eq!(
            self_ns(&spans, 1),
            30 - 10,
            "nested child counts once, at its parent"
        );
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 40, "a leaf is all self time");
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut spans = Spans::new();
        spans.time("outer", |s| {
            s.time("first", |_| ());
            s.next_pass();
            s.time("second", |s| s.add_closed("callback", 1, 2));
        });
        let doc = spans.to_json();
        let rows = doc.as_array().unwrap();
        let parent = |i: usize| rows[i].get("parent").unwrap().as_u64();
        assert_eq!(rows.len(), 4);
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some(0));
        assert_eq!(parent(2), Some(0));
        assert_eq!(parent(3), Some(2));
        assert_eq!(rows[1].get("pass").unwrap().as_u64(), Some(0));
        assert_eq!(rows[2].get("pass").unwrap().as_u64(), Some(1));
        assert!(spans.seconds_of("outer").unwrap() >= spans.self_seconds_of("outer").unwrap());
        assert_eq!(spans.seconds_of("missing"), None);
    }
}
