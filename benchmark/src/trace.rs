//! In-memory spans around the harness's own calls into the system.
//!
//! A span is (name, start, end, parent); the tracer keeps a stack so the
//! parent is whatever span was open when this one began. Spans are kept
//! in memory and written out when the run ends. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index for repeated spans (`burst[k]`), else 0.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, index: u32) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name, 0);
        let r = f(self);
        self.exit();
        r
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Count, total and self time per span name, in first-seen order:
    /// self time is a span's duration minus the part its child spans
    /// cover.
    fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.duration_ns().saturating_sub(child);
            match by_name.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.duration_ns();
                    row.3 += own;
                }
                None => by_name.push((s.name, 1, s.duration_ns(), own)),
            }
        }
        by_name
    }

    /// The trace as JSON: self time per span name, then every span in
    /// start order.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\",\n\"self_time\": [\n");
        let rows = self.self_times();
        for (i, (name, count, total_ns, self_ns)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total_ns}, \"self_ns\": {self_ns}}}{comma}\n"
            ));
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"index\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{comma}\n",
                s.name, s.index, s.start_ns, s.end_ns,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 0);
        t.span("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let rows = t.self_times();
        let (_, count, total, own) = rows.iter().find(|r| r.0 == "outer").copied().unwrap();
        let inner = t.durations("inner")[0] as u64;
        assert_eq!(count, 1);
        assert_eq!(own, total - inner);
        assert!(inner >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", |_| ());
        assert!(t.durations("x").is_empty());
    }
}
