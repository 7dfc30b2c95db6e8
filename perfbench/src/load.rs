//! The open-loop load: set-up repetitions, the single generator thread
//! that pushes every packet at its due time and polls for results, and
//! the checks on every output.

use crate::stats::{self, SiSdrAccumulator};
use crate::workload::{
    Inputs, Plan, Workload, CHUNK, FS, HOP, PACKET, SCORE_MARGIN, TREND_HOP, TREND_WINDOW,
    WARMUP_PACKETS,
};
use dhf_obs::StageBreakdown;
use dhf_oximetry::Spo2Sample;
use dhf_serve::{ServeConfig, ServeError, SessionId, SessionManager, SessionOutput};
use dhf_stream::StreamBlock;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Generator lateness bound: the p90 of (first push attempt − due time)
/// must stay within this share of a session's packet period.
const LATE_P90_SHARE_OF_PERIOD: f64 = 0.25;
/// A backlog that takes longer than this share of the window to drain
/// after the last due packet means the server fell behind the load.
const DRAIN_SHARE_OF_WINDOW: f64 = 0.15;
/// Sessions whose spans are kept as records (all calls enter the
/// aggregate statistics).
const SPAN_SESSIONS: usize = 8;
/// Give up waiting for outputs after this long (a hung worker).
const OUTPUT_TIMEOUT: Duration = Duration::from_secs(120);

/// What the caller asks of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    pub workload: Workload,
    pub plan: Plan,
    pub seed: u64,
    pub seconds: f64,
    /// Enables the `dhf_obs` gate and the benchmark's own spans.
    pub traced: bool,
}

/// One benchmark-side span around a serve call.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Generator tick that issued the call (the parent span).
    pub parent_tick: u64,
    pub session: usize,
    /// Chunk the call completed or collected, if any.
    pub chunk: Option<usize>,
}

/// Everything one load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Per set-up repetition: its duration.
    pub setup_s: Vec<f64>,
    /// Per session of every set-up: first-chunk push → first output.
    pub first_output_s: Vec<f64>,
    pub chunk_latency_s: Vec<f64>,
    pub window_gap_s: Vec<f64>,
    pub signal_s: f64,
    pub window_cpu_s: f64,
    pub window_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub push_attempts: u64,
    pub busy: u64,
    pub check_failures: Vec<String>,
    pub invalid: Vec<String>,
    pub si_sdr_db: Option<f64>,
    pub spo2_mae: Option<f64>,
    pub spo2_windows: u64,
    pub generator_late_s: Vec<f64>,
    pub warm_hits: u64,
    pub cold_fits: u64,
    pub plans_built: u64,
    pub chunks: u64,
    pub push_s: Vec<f64>,
    pub poll_s: Vec<f64>,
    pub spans: Vec<SpanRecord>,
    pub stages: Option<StageBreakdown>,
    pub ingest_latency_p50_s: Option<f64>,
    pub queue_depth_hwm_samples: u64,
    pub backlog_end_samples: u64,
}

impl LoadReport {
    pub fn sessions_per_core(&self) -> f64 {
        self.signal_s / self.window_cpu_s.max(1e-9)
    }
}

/// Per-session generator and output state.
struct Session {
    id: SessionId,
    /// Samples accepted by the server.
    pushed: usize,
    /// Due packets not yet accepted: (packet index, due time, attempts).
    pending: VecDeque<(usize, f64, u32)>,
    /// Chunks completed by accepted pushes.
    chunks_expected: usize,
    /// Separation: next expected block start; blocks and windows received.
    next_block_start: usize,
    blocks: usize,
    windows: usize,
    /// Most recent block, held back from scoring until the next arrives
    /// (the last [`SCORE_MARGIN`] samples of a stream are not scored).
    held: Option<StreamBlock>,
    scores: Vec<SiSdrAccumulator>,
    spo2_abs_err: Vec<f64>,
    /// When the push that completes the first chunk was first issued.
    first_chunk_push_at: Option<f64>,
    first_output: Option<f64>,
    /// When the generator last polled this session.
    last_poll: f64,
}

impl Session {
    fn new(id: SessionId, n_sources: usize) -> Self {
        Session {
            id,
            pushed: 0,
            pending: VecDeque::new(),
            chunks_expected: 0,
            next_block_start: 0,
            blocks: 0,
            windows: 0,
            held: None,
            scores: vec![SiSdrAccumulator::default(); n_sources],
            spo2_abs_err: Vec::new(),
            first_chunk_push_at: None,
            first_output: None,
            last_poll: f64::NEG_INFINITY,
        }
    }

    /// Chunks whose outputs have all arrived.
    fn chunks_done(&self, oximetry: bool) -> usize {
        if oximetry {
            (0..=self.chunks_expected)
                .rev()
                .find(|&c| windows_after_chunks(c) <= self.windows)
                .unwrap_or(0)
        } else {
            self.blocks
        }
    }

    fn awaiting(&self, oximetry: bool) -> bool {
        self.chunks_done(oximetry) < self.chunks_expected
    }
}

/// SpO2 windows a session has emitted once `chunks` chunks separated.
pub fn windows_after_chunks(chunks: usize) -> usize {
    let covered = chunks * HOP;
    if covered < TREND_WINDOW {
        0
    } else {
        (covered - TREND_WINDOW) / TREND_HOP + 1
    }
}

/// Chunks a stream of `samples` ingested samples has completed.
pub fn chunks_after_samples(samples: usize) -> usize {
    if samples < CHUNK {
        0
    } else {
        (samples - CHUNK) / HOP + 1
    }
}

/// Index of the packet whose push completes stream position `end`
/// (exclusive).
fn completing_packet(end: usize) -> usize {
    end.div_ceil(PACKET) - 1
}

/// The open-loop schedule. Every session emits a packet each `period`;
/// session `s` of `n` starts `s / n` of a chunk hop late, so chunk
/// completions spread evenly over time as wearers' would. Packet
/// `k ≥ WARMUP_PACKETS` of session `s` is due at
/// `(offset_s + k − WARMUP_PACKETS) · period` after the window opens, and
/// the window holds every packet due before `seconds`.
#[derive(Debug, Clone)]
struct Schedule {
    period_s: f64,
    /// Per-session start offsets, in packet periods.
    offsets: Vec<f64>,
    seconds: f64,
}

impl Schedule {
    fn new(plan: &Plan, seconds: f64) -> Self {
        let hop_periods = HOP as f64 / PACKET as f64;
        let offsets =
            (0..plan.sessions).map(|s| s as f64 / plan.sessions as f64 * hop_periods).collect();
        Schedule { period_s: PACKET as f64 / FS / plan.speedup, offsets, seconds }
    }

    fn due_of_packet(&self, session: usize, packet: usize) -> Option<f64> {
        let k = packet.checked_sub(WARMUP_PACKETS)?;
        Some((self.offsets[session] + k as f64) * self.period_s)
    }

    /// Packets of `session` due inside the window.
    fn window_packets(&self, session: usize) -> usize {
        (self.seconds / self.period_s - self.offsets[session]).ceil().max(0.0) as usize
    }

    /// Every (due, session, packet) of the window in due order.
    fn events(&self) -> Vec<(f64, usize, usize)> {
        let mut events: Vec<(f64, usize, usize)> = (0..self.offsets.len())
            .flat_map(|s| {
                (0..self.window_packets(s)).map(move |k| {
                    let packet = WARMUP_PACKETS + k;
                    (self.due_of_packet(s, packet).expect("window packet"), s, packet)
                })
            })
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        events
    }
}

/// Runs the workload's set-up repetitions and one open-loop window. The
/// first set-up's sessions carry the window; the others run after it, so
/// the set-up figures sample the host at both ends of the run rather than
/// only in its first seconds.
pub fn run(opts: &LoadOptions) -> LoadReport {
    let mut report = LoadReport::default();
    let (inputs, manager, mut sessions) = set_up(opts, &mut report);
    let mut ctx = RunCtx::new(opts, &inputs, Instant::now());
    ctx.window(&manager, &mut sessions, &mut report);
    ctx.finish(manager, &mut sessions, &mut report);
    for _ in 1..opts.plan.setup_reps {
        // Dropped at once: a hard stop, no flush.
        set_up(opts, &mut report);
    }
    report
}

/// One set-up: synthesis, `open` and every session's first chunk.
fn set_up(opts: &LoadOptions, report: &mut LoadReport) -> (Inputs, SessionManager, Vec<Session>) {
    let w = opts.workload;
    let started = Instant::now();
    let inputs = Inputs::generate(w, &opts.plan, opts.seed, opts.seconds);
    let manager =
        SessionManager::new(ServeConfig::new(opts.plan.workers).expect("valid serve config"));
    let mut sessions: Vec<Session> = (0..opts.plan.sessions)
        .map(|_| {
            let id = if w.is_oximetry() {
                manager.open_oximetry(FS, 2, w.streaming_config(), Workload::oximetry_config())
            } else {
                manager.open(FS, 2, w.streaming_config())
            };
            Session::new(id.expect("open session"), 2)
        })
        .collect();
    RunCtx::new(opts, &inputs, started).warm_up(&manager, &mut sessions, report);
    report.setup_s.push(started.elapsed().as_secs_f64());
    report
        .first_output_s
        .extend(sessions.iter().filter_map(|s| Some(s.first_output? - s.first_chunk_push_at?)));
    (inputs, manager, sessions)
}

/// Mutable state shared by the phases of one run.
struct RunCtx<'a> {
    opts: &'a LoadOptions,
    inputs: &'a Inputs,
    t0: Instant,
    schedule: Schedule,
    tick: u64,
    oximetry: bool,
    /// Per-session output checks already reported (one line per session).
    reported: Vec<bool>,
}

impl<'a> RunCtx<'a> {
    fn new(opts: &'a LoadOptions, inputs: &'a Inputs, t0: Instant) -> Self {
        RunCtx {
            opts,
            inputs,
            t0,
            schedule: Schedule::new(&opts.plan, opts.seconds),
            tick: 0,
            oximetry: opts.workload.is_oximetry(),
            reported: vec![false; opts.plan.sessions],
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn fail_check(&mut self, report: &mut LoadReport, session: usize, what: String) {
        report.failed += 1;
        if !self.reported[session] {
            self.reported[session] = true;
            report.check_failures.push(format!("session {session}: {what}"));
        }
    }

    /// Attempts one push of `packet` for session `s`.
    fn push(
        &mut self,
        manager: &SessionManager,
        sessions: &mut [Session],
        s: usize,
        packet: usize,
        report: &mut LoadReport,
    ) -> Result<(), ServeError> {
        let pos = packet * PACKET;
        let (rec, at) = self.inputs.locate(s, pos);
        let tracks: Vec<&[f64]> = rec.tracks.iter().map(|t| &t[at..at + PACKET]).collect();
        let start = self.now();
        let pushed = match &rec.lambda2 {
            None => manager.push(sessions[s].id, &rec.mixed[at..at + PACKET], &tracks),
            Some(l2) => manager.push_oximetry(
                sessions[s].id,
                &rec.mixed[at..at + PACKET],
                &l2[at..at + PACKET],
                &tracks,
            ),
        };
        let end = self.now();
        report.attempted += 1;
        report.push_attempts += 1;
        let sess = &mut sessions[s];
        let before = chunks_after_samples(sess.pushed);
        if pushed.is_ok() {
            sess.pushed += PACKET;
            sess.chunks_expected = chunks_after_samples(sess.pushed);
        }
        if self.opts.traced {
            report.push_s.push(end - start);
            if s < SPAN_SESSIONS {
                let chunk = (sess.chunks_expected > before).then_some(before);
                report.spans.push(SpanRecord {
                    name: "push",
                    start_s: start,
                    end_s: end,
                    parent_tick: self.tick,
                    session: s,
                    chunk,
                });
            }
        }
        match pushed {
            Ok(_) => Ok(()),
            Err(e) => {
                report.failed += 1;
                if matches!(e, ServeError::Busy { .. }) {
                    report.busy += 1;
                }
                Err(e)
            }
        }
    }

    /// Polls session `s` once and checks what came back.
    fn poll(
        &mut self,
        manager: &SessionManager,
        sessions: &mut [Session],
        s: usize,
        report: &mut LoadReport,
    ) {
        let start = self.now();
        let out = manager.poll(sessions[s].id);
        let end = self.now();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.attempted += 1;
                self.fail_check(report, s, format!("poll failed: {e}"));
                return;
            }
        };
        let got = !out.blocks.is_empty() || !out.spo2.is_empty();
        // A poll that collects nothing is not an operation: how often the
        // generator looks is the benchmark's choice, not the load's.
        report.attempted += u64::from(got || out.error.is_some());
        if self.opts.traced {
            report.poll_s.push(end - start);
            if s < SPAN_SESSIONS && got {
                let chunk = out
                    .blocks
                    .first()
                    .map(|b| b.start / HOP)
                    .or_else(|| out.spo2.first().map(|w| (w.start + w.len).div_ceil(HOP) - 1));
                report.spans.push(SpanRecord {
                    name: "poll",
                    start_s: start,
                    end_s: end,
                    parent_tick: self.tick,
                    session: s,
                    chunk,
                });
            }
        }
        self.absorb(sessions, s, out, end, true, report);
    }

    /// Checks and scores one batch of outputs collected at `at`.
    fn absorb(
        &mut self,
        sessions: &mut [Session],
        s: usize,
        out: SessionOutput,
        at: f64,
        timed: bool,
        report: &mut LoadReport,
    ) {
        if let Some(e) = out.error {
            self.fail_check(report, s, format!("session failed: {e}"));
        }
        for block in out.blocks {
            self.absorb_block(sessions, s, block, at, timed, report);
        }
        for w in out.spo2 {
            self.absorb_window(sessions, s, w, at, timed, report);
        }
        let sess = &mut sessions[s];
        if sess.first_output.is_none() && (sess.blocks > 0 || sess.windows > 0) {
            sess.first_output = Some(at);
        }
    }

    fn absorb_block(
        &mut self,
        sessions: &mut [Session],
        s: usize,
        block: StreamBlock,
        at: f64,
        timed: bool,
        report: &mut LoadReport,
    ) {
        let sess = &sessions[s];
        if block.start != sess.next_block_start {
            let what = format!("block at {} but {} expected", block.start, sess.next_block_start);
            return self.fail_check(report, s, what);
        }
        let len = block.len();
        if block.sources.len() != 2 || block.sources.iter().any(|src| src.len() != len) {
            return self.fail_check(report, s, "malformed block".into());
        }
        if block.sources.iter().flatten().any(|v| !v.is_finite()) {
            self.fail_check(report, s, format!("non-finite output in block at {}", block.start));
        }
        if timed && block.start.is_multiple_of(HOP) {
            let chunk = block.start / HOP;
            let done = completing_packet(chunk * HOP + CHUNK);
            if let Some(due) = self.schedule.due_of_packet(s, done) {
                report.chunk_latency_s.push(at - due);
            }
        }
        let held = sessions[s].held.replace(block);
        if let Some(prev) = held {
            self.score_block(sessions, s, &prev, prev.len());
        }
        let sess = &mut sessions[s];
        sess.next_block_start += len;
        sess.blocks += 1;
    }

    /// Scores the first `upto` samples of a block against ground truth,
    /// skipping stream positions inside the leading margin.
    fn score_block(&self, sessions: &mut [Session], s: usize, block: &StreamBlock, upto: usize) {
        let lo = SCORE_MARGIN.saturating_sub(block.start).min(upto);
        if lo >= upto {
            return;
        }
        let mut pos = block.start + lo;
        let end = block.start + upto;
        // Recordings wrap on packet boundaries; score packet-sized runs so
        // a reference slice never crosses the wrap.
        while pos < end {
            let run_end = ((pos / PACKET) + 1) * PACKET;
            let run_end = run_end.min(end);
            let (rec, at) = self.inputs.locate(s, pos);
            let n = run_end - pos;
            for (src, acc) in sessions[s].scores.iter_mut().enumerate() {
                let est = &block.sources[src][pos - block.start..run_end - block.start];
                acc.add(&rec.sources[src][at..at + n], est);
            }
            pos = run_end;
        }
    }

    fn absorb_window(
        &mut self,
        sessions: &mut [Session],
        s: usize,
        w: Spo2Sample,
        at: f64,
        timed: bool,
        report: &mut LoadReport,
    ) {
        let expected_start = sessions[s].windows * TREND_HOP;
        if w.start != expected_start || w.len != TREND_WINDOW {
            let what =
                format!("SpO2 window at {} (len {}), {expected_start} expected", w.start, w.len);
            return self.fail_check(report, s, what);
        }
        if !w.spo2.is_finite() || !w.ratio.is_finite() {
            self.fail_check(report, s, format!("non-finite SpO2 window at {}", w.start));
        }
        let end = w.start + w.len;
        if timed {
            let chunk = end.div_ceil(HOP) - 1;
            if let Some(due) =
                self.schedule.due_of_packet(s, completing_packet(chunk * HOP + CHUNK))
            {
                report.chunk_latency_s.push(at - due);
            }
            if let Some(due) = self.schedule.due_of_packet(s, completing_packet(end)) {
                report.window_gap_s.push(at - due);
            }
        }
        let (rec, mid) = self.inputs.locate(s, w.start + w.len / 2);
        sessions[s].spo2_abs_err.push((w.spo2 - rec.sao2[mid]).abs());
        sessions[s].windows += 1;
    }

    /// Set-up warm-up: sessions join one at a time. Each pushes its first
    /// chunk as fast as the server accepts it and waits for its first
    /// output before the next joins, so each wait is the cold start a
    /// wearer joining an otherwise idle server sees. The generator sleeps
    /// between polls: polling without pause slowed the worker on the other
    /// core by up to 45 % in some runs and not in others.
    fn warm_up(
        &mut self,
        manager: &SessionManager,
        sessions: &mut [Session],
        report: &mut LoadReport,
    ) {
        let poll = self.opts.plan.poll;
        for s in 0..sessions.len() {
            for packet in 0..WARMUP_PACKETS {
                if packet + 1 == WARMUP_PACKETS {
                    // Timed from the completing push's call: a push may
                    // return after the worker already separated the chunk.
                    sessions[s].first_chunk_push_at = Some(self.now());
                }
                loop {
                    match self.push(manager, sessions, s, packet, report) {
                        Ok(()) => break,
                        Err(ServeError::Busy { .. }) => std::thread::sleep(poll),
                        Err(e) => panic!("warm-up push refused: {e}"),
                    }
                }
            }
            // Each session's polls fall at its own phase of the poll
            // interval. With one phase for all, most waits would read the
            // same whole number of intervals, and the median would jump by
            // an interval when the chunk's time crossed a boundary.
            std::thread::sleep(poll.mul_f64((s % 8) as f64 / 8.0));
            let deadline = Instant::now() + OUTPUT_TIMEOUT;
            loop {
                self.poll_untimed(manager, sessions, s, report);
                if !sessions[s].awaiting(self.oximetry) {
                    break;
                }
                assert!(Instant::now() < deadline, "first outputs never arrived");
                std::thread::sleep(poll);
            }
        }
    }

    fn poll_untimed(
        &mut self,
        manager: &SessionManager,
        sessions: &mut [Session],
        s: usize,
        report: &mut LoadReport,
    ) {
        match manager.poll(sessions[s].id) {
            Ok(out) => {
                let at = self.now();
                let got = !out.blocks.is_empty() || !out.spo2.is_empty();
                report.attempted += u64::from(got || out.error.is_some());
                self.absorb(sessions, s, out, at, false, report);
            }
            Err(e) => {
                report.attempted += 1;
                self.fail_check(report, s, format!("poll failed: {e}"));
            }
        }
    }

    /// The open-loop window: pushes every packet due within
    /// `opts.seconds`, then collects every chunk those packets completed.
    fn window(
        &mut self,
        manager: &SessionManager,
        sessions: &mut [Session],
        report: &mut LoadReport,
    ) {
        let oximetry = self.oximetry;
        let poll = self.opts.plan.poll.as_secs_f64();
        let n = sessions.len();
        let chunks_before: usize = sessions.iter().map(|s| s.chunks_expected).sum();
        dhf_obs::set_enabled(self.opts.traced);
        let cpu0 = stats::process_cpu_s();
        self.t0 = Instant::now();
        let seconds = self.opts.seconds;
        let events = self.schedule.events();
        let mut cursor = 0usize;
        let deadline = Duration::from_secs_f64(seconds) + OUTPUT_TIMEOUT;
        // When the last due packet was accepted: the drain after it measures
        // the backlog the window left behind.
        let mut all_pushed_at = None;
        loop {
            self.tick += 1;
            let now = self.now();
            while let Some(&(due, s, packet)) = events.get(cursor).filter(|e| e.0 <= now) {
                sessions[s].pending.push_back((packet, due, 0));
                cursor += 1;
            }
            let mut any_pending = false;
            for s in 0..n {
                while let Some(&(packet, due, tries)) = sessions[s].pending.front() {
                    if tries == 0 {
                        report.generator_late_s.push(self.now() - due);
                    }
                    match self.push(manager, sessions, s, packet, report) {
                        Ok(()) => {
                            sessions[s].pending.pop_front();
                        }
                        Err(ServeError::Busy { .. }) => {
                            // Retried next tick; keeps its original due time.
                            sessions[s].pending[0].2 += 1;
                            any_pending = true;
                            break;
                        }
                        Err(e) => {
                            self.fail_check(report, s, format!("push refused: {e}"));
                            sessions[s].pending.clear();
                        }
                    }
                }
            }
            let mut outstanding = 0usize;
            for s in 0..n {
                if sessions[s].awaiting(oximetry) {
                    // At most one poll per session per poll interval.
                    let now = self.now();
                    if now - sessions[s].last_poll >= poll {
                        sessions[s].last_poll = now;
                        self.poll(manager, sessions, s, report);
                    }
                    let sess = &sessions[s];
                    outstanding += sess.chunks_expected - sess.chunks_done(oximetry);
                }
            }
            let all_pushed = cursor == events.len() && !any_pending;
            if all_pushed && all_pushed_at.is_none() {
                all_pushed_at = Some(self.now());
                if self.opts.traced {
                    let t = manager.telemetry();
                    report.backlog_end_samples =
                        t.shards.iter().map(|s| s.queue_depth_samples as u64).sum();
                }
            }
            if all_pushed && outstanding == 0 {
                break;
            }
            assert!(self.t0.elapsed() < deadline, "outputs never arrived");
            let next_due = events.get(cursor).map_or(f64::INFINITY, |e| e.0);
            let wait = if any_pending || outstanding > 0 {
                (next_due - self.now()).min(poll)
            } else {
                next_due - self.now()
            };
            if wait > 0.0 && wait.is_finite() {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        }
        report.window_wall_s = self.now();
        report.window_cpu_s = stats::process_cpu_s() - cpu0;
        let chunks_after: usize = sessions.iter().map(|s| s.chunks_expected).sum();
        report.signal_s = ((chunks_after - chunks_before) * HOP) as f64 / FS;
        let t = manager.telemetry();
        report.warm_hits = t.warm_hits();
        report.cold_fits = t.cold_fits();
        report.plans_built = t.plans_built();
        report.queue_depth_hwm_samples = t.queue_depth_hwm();

        let late_p90 = stats::percentile(&report.generator_late_s, 90.0).unwrap_or(0.0);
        let bound = LATE_P90_SHARE_OF_PERIOD * self.schedule.period_s;
        if late_p90 > bound {
            report
                .invalid
                .push(format!("generator ran late: p90 {late_p90:.6} s exceeds {bound:.6} s"));
        }
        let drain_s = report.window_wall_s - all_pushed_at.unwrap_or(report.window_wall_s);
        if drain_s > DRAIN_SHARE_OF_WINDOW * seconds {
            report.invalid.push(format!(
                "backlog grew across the window: its outputs took {drain_s:.3} s to drain"
            ));
        }
    }

    /// Graceful shutdown: collects what each session still owed and checks
    /// that every pushed sample and every SpO2 window is accounted for.
    fn finish(
        &mut self,
        manager: SessionManager,
        sessions: &mut [Session],
        report: &mut LoadReport,
    ) {
        let spo2_updates_before_close = manager.telemetry().spo2_updates();
        let shutdown = manager.shutdown().expect("graceful shutdown");
        // Stage spans stay on through the close so final flushes are seen.
        dhf_obs::set_enabled(false);
        if self.opts.traced {
            let stages = shutdown.telemetry.stage_breakdown();
            report.chunks = stages.stage(dhf_obs::Stage::ChunkAdvance).count();
            report.stages = Some(stages);
            report.ingest_latency_p50_s = shutdown.telemetry.latency_percentile(50.0);
        }
        let received_before: u64 = sessions.iter().map(|s| s.windows as u64).sum();
        for (s, (id, outcome)) in shutdown.sessions.into_iter().enumerate() {
            assert_eq!(id, sessions[s].id, "shutdown reports sessions in open order");
            let out =
                SessionOutput { blocks: outcome.blocks, spo2: outcome.spo2, error: outcome.error };
            let at = self.now();
            self.absorb(sessions, s, out, at, false, report);
            let sess = &sessions[s];
            if !self.oximetry && sess.next_block_start + outcome.dropped_samples != sess.pushed {
                let what = format!(
                    "{} samples pushed, {} returned, {} reported dropped",
                    sess.pushed, sess.next_block_start, outcome.dropped_samples
                );
                self.fail_check(report, s, what);
            }
        }
        if self.oximetry {
            let total: u64 = sessions.iter().map(|s| s.windows as u64).sum();
            report.spo2_windows = total;
            let telemetry_total = shutdown.telemetry.spo2_updates();
            if total != telemetry_total || received_before != spo2_updates_before_close {
                report.failed += 1;
                report
                    .check_failures
                    .push(format!("SpO2 windows: {total} collected, {telemetry_total} emitted"));
            }
            let errs: Vec<f64> =
                sessions.iter().flat_map(|s| s.spo2_abs_err.iter().copied()).collect();
            report.spo2_mae = stats::mean(&errs);
        } else {
            for s in 0..sessions.len() {
                if let Some(last) = sessions[s].held.take() {
                    let upto = last.len().saturating_sub(SCORE_MARGIN);
                    self.score_block(sessions, s, &last, upto);
                }
            }
            let dbs: Vec<f64> =
                sessions.iter().flat_map(|s| s.scores.iter().filter_map(|a| a.db())).collect();
            report.si_sdr_db = stats::mean(&dbs);
        }
    }
}
