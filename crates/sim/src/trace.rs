/// A labelled time span recorded during an algorithm run — the raw data
/// behind the phase figures (Figures 1 and 2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Phase label, e.g. `"round1/exploration"`.
    pub label: String,
    /// Span start (absolute simulation time).
    pub start: f64,
    /// Span end.
    pub end: f64,
    /// Free-form detail (team size, square width, recruit counts, …).
    pub detail: String,
}

/// Chronological log of labelled spans.
///
/// # Example
///
/// ```
/// use freezetag_sim::Trace;
/// let mut t = Trace::new();
/// t.record("round0/recruit", 0.0, 12.5, "team grew to 8");
/// assert_eq!(t.spans().len(), 1);
/// assert_eq!(t.spans()[0].end, 12.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<TraceSpan>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a span.
    pub fn record(
        &mut self,
        label: impl Into<String>,
        start: f64,
        end: f64,
        detail: impl Into<String>,
    ) {
        self.spans.push(TraceSpan {
            label: label.into(),
            start,
            end,
            detail: detail.into(),
        });
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record("a/x", 0.0, 2.0, "");
        t.record("a/y", 2.0, 3.0, "detail");
        t.record("b", 3.0, 10.0, "");
        t.record("a/x", 10.0, 11.0, "");
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.spans()[1].label, "a/y");
        assert_eq!(t.spans()[1].detail, "detail");
        assert_eq!((t.spans()[2].start, t.spans()[2].end), (3.0, 10.0));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
