//! From the client-side records of a measured window to the end-to-end
//! numbers. The window is cut into equal segments; every timing is
//! computed per segment and reported as the median of segments, so a
//! neighbour's burst that spoils one or two segments does not move it.

use crate::loadgen::{Outcome, Sent};
use crate::proc::Usage;
use crate::stats::{median_of_segments, percentile, sorted};
use crate::workloads::{Arrival, Workload};
use microscopiq_runtime::QosClass;
use std::time::{Duration, Instant};

/// Segments per window (fewer when `--seconds` is smaller than this).
pub const SEGMENTS: usize = 7;

/// Samples process counters as the window's segment boundaries pass.
pub struct Window {
    pub t0: Instant,
    pub segment: Duration,
    pub segments: usize,
    /// `segments + 1` samples once the window has closed.
    pub usage: Vec<Usage>,
}

impl Window {
    pub fn start(seconds: f64) -> Self {
        let segments = (seconds as usize).clamp(1, SEGMENTS);
        Self {
            t0: Instant::now(),
            segment: Duration::from_secs_f64(seconds / segments as f64),
            segments,
            usage: vec![Usage::now()],
        }
    }

    pub fn boundary(&self, k: usize) -> Instant {
        self.t0 + self.segment * k as u32
    }

    pub fn end(&self) -> Instant {
        self.boundary(self.segments)
    }

    /// Call with the current time as often as convenient.
    pub fn tick(&mut self, now: Instant) {
        while self.usage.len() <= self.segments && now >= self.boundary(self.usage.len()) {
            self.usage.push(Usage::now());
        }
    }

    fn segment_of(&self, at: Instant) -> Option<usize> {
        if at < self.t0 || at >= self.end() {
            return None;
        }
        let k = (at - self.t0).as_secs_f64() / self.segment.as_secs_f64();
        Some((k as usize).min(self.segments - 1))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub tokens_per_s: f64,
    pub ttft_p50_ms: f64,
    pub ttft_p90_ms: f64,
    pub ttft_p99_ms: f64,
    pub itl_p50_ms: f64,
    pub itl_p90_ms: f64,
    pub itl_p99_ms: f64,
    pub slo_attainment: f64,
    pub delivered_share: f64,
    pub cpu_ms_per_token: f64,
    pub cpu_sys_share: f64,
    pub ctx_switches_per_token: f64,
    /// Tokens/s of each segment; their inter-quartile spread over the
    /// median tells a noisy run from a quiet one.
    pub segment_rates: Vec<f64>,
    /// Requests whose due time fell inside the window.
    pub sent: usize,
    pub failed: usize,
}

pub fn analyze(w: &Workload, records: &[Sent], win: &Window) -> EndToEnd {
    let n = win.segments;
    let seg_s = win.segment.as_secs_f64();
    let mut tokens = vec![0usize; n];
    let mut ttft: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); n];
    let (mut all_ttft, mut all_gaps) = (Vec::new(), Vec::new());
    for r in records {
        for (j, &at) in r.token_at.iter().enumerate() {
            let Some(k) = win.segment_of(at) else {
                continue;
            };
            tokens[k] += 1;
            if j == 0 {
                // Interactive requests only: `mix_open`'s documents are a
                // second, 10x slower mode one fifth of the samples wide,
                // and a median taken across both sits on the slope
                // between them. Closed loops clock from submit (`due ==
                // submitted`), the open loop from when the request was
                // due, so time a late generator adds is the request's.
                if r.class == QosClass::Interactive {
                    ttft[k].push(ms(at.saturating_duration_since(r.due)));
                }
            } else {
                gaps[k].push(ms(at - r.token_at[j - 1]));
            }
        }
    }
    for k in 0..n {
        all_ttft.extend_from_slice(&ttft[k]);
        all_gaps.extend_from_slice(&gaps[k]);
    }
    let per_segment = |samples: &[Vec<f64>], p: f64| -> f64 {
        let each: Vec<f64> = samples
            .iter()
            .map(|s| percentile(&sorted(s.clone()), p))
            .collect();
        median_of_segments(&each)
    };
    let rate: Vec<f64> = tokens.iter().map(|&t| t as f64 / seg_s).collect();
    let total_tokens: usize = tokens.iter().sum();
    let tokens_per_s = match w.arrival {
        Arrival::Closed { .. } => median_of_segments(&rate),
        // The schedule fixes what is offered, so the whole window is
        // the steadier reading; it falls only when a backlog outlives it.
        Arrival::Open { .. } => total_tokens as f64 / (seg_s * n as f64),
    };

    let usage = |k: usize| (win.usage[k], win.usage[k + 1]);
    let complete = win.usage.len() == n + 1;
    let cpu_per_token: Vec<f64> = (0..n)
        .map(|k| {
            if !complete || tokens[k] == 0 {
                return f64::NAN;
            }
            let (a, b) = usage(k);
            ms(b.cpu() - a.cpu()) / tokens[k] as f64
        })
        .collect();
    let (first, last) = (
        win.usage[0],
        *win.usage.last().expect("window start sample"),
    );
    let cpu_total = (last.cpu() - first.cpu()).as_secs_f64();

    let in_window: Vec<&Sent> = records
        .iter()
        .filter(|r| r.due >= win.t0 && r.due < win.end())
        .collect();
    let finished = |r: &Sent| r.outcome == Outcome::Finished;
    let within_limits = |r: &Sent| {
        let Some(&first) = r.token_at.first() else {
            return false;
        };
        let ttft_ms = ms(first.saturating_duration_since(r.due));
        let mean_gap_ms = match r.token_at.len() {
            1 => 0.0,
            k => ms(r.token_at[k - 1] - first) / (k - 1) as f64,
        };
        finished(r) && ttft_ms <= w.slo_ttft_ms && mean_gap_ms <= w.slo_gap_ms
    };
    let sent = in_window.len();
    let share = |count: usize| count as f64 / sent.max(1) as f64;
    let (all_ttft, all_gaps) = (sorted(all_ttft), sorted(all_gaps));

    EndToEnd {
        tokens_per_s,
        ttft_p50_ms: per_segment(&ttft, 50.0),
        ttft_p90_ms: per_segment(&ttft, 90.0),
        ttft_p99_ms: percentile(&all_ttft, 99.0),
        itl_p50_ms: per_segment(&gaps, 50.0),
        itl_p90_ms: per_segment(&gaps, 90.0),
        itl_p99_ms: percentile(&all_gaps, 99.0),
        slo_attainment: share(in_window.iter().filter(|r| within_limits(r)).count()),
        delivered_share: share(in_window.iter().filter(|r| finished(r)).count()),
        cpu_ms_per_token: median_of_segments(&cpu_per_token),
        cpu_sys_share: (last.sys - first.sys).as_secs_f64() / cpu_total.max(1e-9),
        ctx_switches_per_token: (last.ctx_switches - first.ctx_switches) as f64
            / total_tokens.max(1) as f64,
        segment_rates: rate,
        sent,
        failed: in_window.iter().filter(|r| !finished(r)).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    /// A finished request whose tokens arrive `first_ms` after `due` and
    /// then every `gap_ms`.
    fn record(due: Instant, first_ms: u64, gap_ms: u64, n: usize) -> Sent {
        let token_at = (0..n as u64)
            .map(|j| due + Duration::from_millis(first_ms + j * gap_ms))
            .collect();
        Sent {
            index: 0,
            due,
            submitted: due,
            submit_took: Duration::ZERO,
            class: QosClass::Interactive,
            prompt_len: 1,
            expected: n,
            token_at,
            tokens: vec![0; n],
            outcome: Outcome::Finished,
        }
    }

    fn window(t0: Instant, segments: usize, segment_ms: u64) -> Window {
        let tick = |i: u64| Usage {
            user: Duration::from_millis(40 * i),
            sys: Duration::from_millis(10 * i),
            ctx_switches: 100 * i,
        };
        Window {
            t0,
            segment: Duration::from_millis(segment_ms),
            segments,
            usage: (0..=segments as u64).map(tick).collect(),
        }
    }

    #[test]
    fn timings_are_medians_over_segments_and_counts_are_totals() {
        let w = by_name("decode_wide").unwrap();
        let t0 = Instant::now();
        let win = window(t0, 3, 1000);
        // One request per segment; the middle segment is slow (a burst).
        let records = vec![
            record(t0 + Duration::from_millis(100), 10, 5, 11),
            record(t0 + Duration::from_millis(1100), 80, 40, 11),
            record(t0 + Duration::from_millis(2100), 12, 5, 11),
        ];
        let e = analyze(&w, &records, &win);
        assert_eq!(e.ttft_p50_ms, 12.0);
        assert_eq!(e.itl_p50_ms, 5.0);
        assert_eq!(e.tokens_per_s, 11.0);
        // 50 ms of CPU per segment over 11 tokens.
        assert!((e.cpu_ms_per_token - 50.0 / 11.0).abs() < 1e-9);
        assert!((e.cpu_sys_share - 0.2).abs() < 1e-9);
        assert!((e.ctx_switches_per_token - 300.0 / 33.0).abs() < 1e-9);
        assert_eq!((e.sent, e.failed), (3, 0));
        assert_eq!(e.delivered_share, 1.0);
        // The slow one breaks the 60 ms TTFT limit.
        assert!((e.slo_attainment - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn failures_and_requests_outside_the_window_are_accounted() {
        let w = by_name("decode_wide").unwrap();
        let t0 = Instant::now() + Duration::from_secs(1);
        let win = window(t0, 2, 500);
        let mut failed = record(t0 + Duration::from_millis(10), 5, 5, 3);
        failed.outcome = Outcome::Failed("refused".into());
        // Sent before the window opened: its tokens inside the window
        // count for throughput, the request does not count as sent.
        let early = record(t0 - Duration::from_millis(20), 30, 10, 4);
        let e = analyze(&w, &[failed, early, record(t0, 5, 5, 3)], &win);
        assert_eq!((e.sent, e.failed), (2, 1));
        assert_eq!(e.delivered_share, 0.5);
        assert_eq!(e.slo_attainment, 0.5);
        assert_eq!(e.tokens_per_s * 1.0, median_of_segments(&[10.0 / 0.5, 0.0]));
    }

    #[test]
    fn first_token_latency_is_taken_over_interactive_requests() {
        let w = by_name("mix_open").unwrap();
        let t0 = Instant::now();
        let win = window(t0, 1, 1000);
        let mut document = record(t0 + Duration::from_millis(10), 300, 4, 5);
        document.class = QosClass::Batch;
        let chats = [8, 9, 10].map(|first| record(t0 + Duration::from_millis(20), first, 4, 5));
        let mut records = vec![document.clone(), document];
        records.extend(chats);
        let e = analyze(&w, &records, &win);
        assert_eq!(e.ttft_p50_ms, 9.0);
        // Documents still count as sent, and their tokens as delivered.
        assert_eq!(e.sent, 5);
        assert_eq!(e.tokens_per_s, 25.0);
    }

    #[test]
    fn open_loop_clocks_first_token_from_the_due_time() {
        let w = by_name("mix_open").unwrap();
        let t0 = Instant::now();
        let win = window(t0, 1, 1000);
        let mut late = record(t0 + Duration::from_millis(100), 50, 4, 5);
        // The generator ran 30 ms late; the client still waited 50 ms
        // from the moment the request was due.
        late.submitted = late.due + Duration::from_millis(30);
        let e = analyze(&w, &[late], &win);
        assert_eq!(e.ttft_p50_ms, 50.0);
        assert_eq!(e.tokens_per_s, 5.0);
    }
}
