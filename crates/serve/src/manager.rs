//! The session manager: lifecycle API over the sharded worker pool.

use crate::config::{BackpressurePolicy, ServeConfig};
use crate::session::{
    CloseOutcome, PushReceipt, SessionId, SessionKind, SessionOutput, SessionShared,
};
use crate::shard::{run_worker, Command, Engine, IngestItem, SessionQueue, ShardShared};
use crate::telemetry::{ShardCounters, Telemetry};
use crate::ServeError;
use dhf_oximetry::{OximetryConfig, OximetryError, StreamingOximeter};
use dhf_stream::{StreamError, StreamingConfig, StreamingSeparator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Fibonacci multiplicative hash: spreads sequential session ids evenly
/// over the shards.
fn shard_of(id: u64, shards: usize) -> usize {
    ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as usize
}

/// Synchronous per-push track validation shared by both push APIs: the
/// track count must match the session and every track the packet length.
///
/// On success, returns the first non-positive or non-finite f0 value as
/// `(track, offset)` within the packet; `SessionManager::enqueue`
/// reports it at its absolute stream position, which needs the queue.
fn validate_tracks(
    samples: usize,
    n_sources: usize,
    f0_tracks: &[&[f64]],
) -> Result<Option<(usize, usize)>, ServeError> {
    if f0_tracks.len() != n_sources {
        return Err(ServeError::Session(StreamError::SourceCountMismatch {
            expected: n_sources,
            got: f0_tracks.len(),
        }));
    }
    for t in f0_tracks {
        if t.len() != samples {
            return Err(ServeError::Session(StreamError::TrackLengthMismatch {
                signal: samples,
                track: t.len(),
            }));
        }
    }
    Ok(f0_tracks
        .iter()
        .enumerate()
        .find_map(|(ti, t)| dhf_core::first_invalid_f0(t).map(|i| (ti, i))))
}

struct ShardHandle {
    shared: Arc<ShardShared>,
    counters: Arc<ShardCounters>,
    join: Option<JoinHandle<()>>,
}

struct SessionEntry {
    shard: usize,
    n_sources: usize,
    kind: SessionKind,
    shared: Arc<SessionShared>,
}

/// A sharded pool of worker threads multiplexing many independent
/// streaming-separation sessions.
///
/// Sessions are hash-sharded onto workers at [`open`](Self::open) and
/// pinned there for life, so a worker's caches (per-session FFT plans and
/// spectrogram buffers, plus the worker thread's thread-local planner)
/// serve all of its sessions. All methods take `&self` and are safe to
/// call from many client threads concurrently; per-session calls are
/// expected from one client at a time (packets from concurrent `push`es
/// to the *same* session are serialized in an unspecified order).
///
/// ```
/// use dhf_core::DhfConfig;
/// use dhf_serve::{ServeConfig, SessionManager};
/// use dhf_stream::StreamingConfig;
///
/// # fn main() -> Result<(), dhf_serve::ServeError> {
/// let manager = SessionManager::new(ServeConfig::new(4)?);
/// let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast())
///     .map_err(dhf_serve::ServeError::Session)?;
/// let id = manager.open(100.0, 2, scfg)?;
/// let (samples, f0_a, f0_b) = (vec![0.0; 100], vec![1.3; 100], vec![2.2; 100]);
/// manager.push(id, &samples, &[&f0_a, &f0_b])?;
/// let out = manager.poll(id)?;
/// for block in out.blocks {
///     println!("{} samples from {}", block.len(), block.start);
/// }
/// let rest = manager.close(id)?;
/// println!("final {} blocks", rest.blocks.len());
/// # Ok(())
/// # }
/// ```
pub struct SessionManager {
    cfg: ServeConfig,
    shards: Vec<ShardHandle>,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
    started: Instant,
}

impl SessionManager {
    /// Starts the worker pool (one OS thread per shard).
    pub fn new(cfg: ServeConfig) -> Self {
        let shards = (0..cfg.workers())
            .map(|_| {
                let shared = Arc::new(ShardShared::default());
                let counters = Arc::new(ShardCounters::new());
                let (s, c) = (Arc::clone(&shared), Arc::clone(&counters));
                let join = std::thread::spawn(move || run_worker(s, c));
                ShardHandle { shared, counters, join: Some(join) }
            })
            .collect();
        SessionManager {
            cfg,
            shards,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
        }
    }

    /// The configuration the pool was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Opens a session for `n_sources` sources sampled at `fs` Hz and
    /// assigns it to a shard.
    ///
    /// The session's [`StreamingSeparator`] is constructed here (cheap —
    /// plans build lazily on the first chunk) and migrates to its worker.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Session`] if the parameters are invalid.
    pub fn open(
        &self,
        fs: f64,
        n_sources: usize,
        scfg: StreamingConfig,
    ) -> Result<SessionId, ServeError> {
        let sep =
            Box::new(StreamingSeparator::new(fs, n_sources, scfg).map_err(ServeError::Session)?);
        Ok(self.register(Engine::Separation(sep), n_sources))
    }

    /// Opens a fetal-oximetry session ([`SessionKind::Oximetry`]): two
    /// sample-aligned wavelength channels are ingested with
    /// [`push_oximetry`](Self::push_oximetry), and windowed SpO2 estimates
    /// come back in [`SessionOutput::spo2`] — the serving runtime runs the
    /// paper's end task (§4.3), not just raw separation.
    ///
    /// The session drives a [`StreamingOximeter`] (two per-wavelength
    /// [`StreamingSeparator`]s plus trend extraction) on its shard's
    /// worker; `ocfg.fetal_source` names the fetal track among the
    /// `n_sources` supplied per push.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Oximetry`] if the parameters are invalid.
    pub fn open_oximetry(
        &self,
        fs: f64,
        n_sources: usize,
        scfg: StreamingConfig,
        ocfg: OximetryConfig,
    ) -> Result<SessionId, ServeError> {
        let ox = Box::new(
            StreamingOximeter::new(fs, n_sources, scfg, ocfg).map_err(ServeError::Oximetry)?,
        );
        Ok(self.register(Engine::Oximetry(ox), n_sources))
    }

    /// Assigns a freshly built engine to a shard and registers the
    /// session.
    fn register(&self, engine: Engine, n_sources: usize) -> SessionId {
        let kind = engine.kind();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = shard_of(id, self.shards.len());
        let shared = Arc::new(SessionShared::default());

        {
            let mut st = self.shards[shard].shared.state.lock().unwrap();
            st.queues.insert(id, SessionQueue::default());
            st.commands.push_back(Command::Open { id, engine, shared: Arc::clone(&shared) });
        }
        self.shards[shard].shared.cv.notify_one();

        self.sessions.lock().unwrap().insert(id, SessionEntry { shard, n_sources, kind, shared });
        SessionId(id)
    }

    /// Enqueues a packet of samples (with each source's matching f0
    /// values) for asynchronous separation.
    ///
    /// Validation is synchronous — a rejected push buffers nothing — and
    /// admission is governed by the configured
    /// [`BackpressurePolicy`]. The separation itself happens on the
    /// session's worker; collect results with [`poll`](Self::poll).
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — never opened, or already closed.
    /// * [`ServeError::SessionFailed`] — a previous chunk failed; the
    ///   session only accepts [`poll`](Self::poll) / [`close`](Self::close).
    /// * [`ServeError::Session`] — track count/length/value validation.
    /// * [`ServeError::Busy`] — queue full under [`BackpressurePolicy::Busy`],
    ///   or the packet alone exceeds the queue capacity.
    pub fn push(
        &self,
        id: SessionId,
        samples: &[f64],
        f0_tracks: &[&[f64]],
    ) -> Result<PushReceipt, ServeError> {
        let (shard, n_sources, shared) = self.admit(id, SessionKind::Separation)?;
        if let Some(err) = shared.mailbox.lock().unwrap().error.clone() {
            return Err(ServeError::SessionFailed { session: id, error: err });
        }
        // The O(samples) work — value scanning and packet copies — runs
        // *before* the shard lock, so the critical section is a few
        // pointer moves and never serializes other clients (or the
        // worker's batch drain) behind a memcpy.
        let bad_value = validate_tracks(samples.len(), n_sources, f0_tracks)?;
        let capacity = self.cfg.queue_capacity();
        let incoming = samples.len();
        let item = if bad_value.is_none() && incoming > 0 && incoming <= capacity {
            Some(IngestItem {
                samples: samples.to_vec(),
                samples2: None,
                tracks: f0_tracks.iter().map(|t| t.to_vec()).collect(),
                enqueued_at: Instant::now(),
            })
        } else {
            None
        };
        self.enqueue(shard, id, bad_value, item, incoming)
    }

    /// Enqueues one sample-aligned dual-wavelength packet (λ1, λ2, and
    /// the shared f0 tracks) for asynchronous oximetry.
    ///
    /// Semantics mirror [`push`](Self::push): validation is synchronous
    /// and buffers nothing on rejection, admission is governed by the
    /// configured [`BackpressurePolicy`], and the SpO2 windows appear in
    /// [`poll`](Self::poll)'s [`SessionOutput::spo2`]. Queue accounting is
    /// per *stream* sample — a packet of `n` samples per channel occupies
    /// `n` units of queue capacity, since the channels advance the stream
    /// position together.
    ///
    /// # Errors
    ///
    /// Everything [`push`](Self::push) returns, plus
    /// [`ServeError::KindMismatch`] when the session is not an oximetry
    /// session and [`ServeError::Oximetry`] when the channels' lengths
    /// differ.
    pub fn push_oximetry(
        &self,
        id: SessionId,
        lambda1: &[f64],
        lambda2: &[f64],
        f0_tracks: &[&[f64]],
    ) -> Result<PushReceipt, ServeError> {
        let (shard, n_sources, shared) = self.admit(id, SessionKind::Oximetry)?;
        if let Some(err) = shared.mailbox.lock().unwrap().error.clone() {
            return Err(ServeError::SessionFailed { session: id, error: err });
        }
        if lambda1.len() != lambda2.len() {
            return Err(ServeError::Oximetry(OximetryError::ChannelLengthMismatch {
                lambda1: lambda1.len(),
                lambda2: lambda2.len(),
            }));
        }
        let bad_value = validate_tracks(lambda1.len(), n_sources, f0_tracks)?;
        let capacity = self.cfg.queue_capacity();
        let incoming = lambda1.len();
        let item = if bad_value.is_none() && incoming > 0 && incoming <= capacity {
            Some(IngestItem {
                samples: lambda1.to_vec(),
                samples2: Some(lambda2.to_vec()),
                tracks: f0_tracks.iter().map(|t| t.to_vec()).collect(),
                enqueued_at: Instant::now(),
            })
        } else {
            None
        };
        self.enqueue(shard, id, bad_value, item, incoming)
    }

    /// Looks a session up and checks the request used the API matching
    /// its kind.
    fn admit(
        &self,
        id: SessionId,
        expected: SessionKind,
    ) -> Result<(usize, usize, Arc<SessionShared>), ServeError> {
        let sessions = self.sessions.lock().unwrap();
        let e = sessions.get(&id.0).ok_or(ServeError::UnknownSession(id))?;
        if e.kind != expected {
            return Err(ServeError::KindMismatch { session: id, kind: e.kind });
        }
        Ok((e.shard, e.n_sources, Arc::clone(&e.shared)))
    }

    /// The admission path shared by both push APIs: locates the queue,
    /// reports bad track values by absolute accepted-stream position,
    /// applies the backpressure policy, and enqueues the packet.
    fn enqueue(
        &self,
        shard: usize,
        id: SessionId,
        bad_value: Option<(usize, usize)>,
        item: Option<IngestItem>,
        incoming: usize,
    ) -> Result<PushReceipt, ServeError> {
        let capacity = self.cfg.queue_capacity();
        let handle = &self.shards[shard];
        let mut st = handle.shared.state.lock().unwrap();
        let q = st.queues.get_mut(&id.0).ok_or(ServeError::UnknownSession(id))?;

        // Bad values are located by absolute position in the accepted
        // stream (under `DropOldest` evictions the engine's own stream
        // compacts, so engine-side positions can run behind these).
        if let Some((track, i)) = bad_value {
            return Err(ServeError::Session(StreamError::NonPositiveTrackValue {
                track,
                sample: q.enqueued_total + i,
            }));
        }
        if incoming == 0 {
            return Ok(PushReceipt { queued_samples: q.queued_samples, dropped_samples: 0 });
        }
        if incoming > capacity {
            handle.counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Busy {
                session: id,
                queued_samples: q.queued_samples,
                incoming,
                capacity,
            });
        }
        let mut dropped = 0usize;
        if q.queued_samples + incoming > capacity {
            match self.cfg.backpressure() {
                BackpressurePolicy::Busy => {
                    handle.counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Busy {
                        session: id,
                        queued_samples: q.queued_samples,
                        incoming,
                        capacity,
                    });
                }
                BackpressurePolicy::DropOldest => {
                    while q.queued_samples + incoming > capacity {
                        let evicted =
                            q.items.pop_front().expect("queued_samples > 0 implies items");
                        q.queued_samples -= evicted.samples.len();
                        dropped += evicted.samples.len();
                    }
                }
            }
        }
        q.items.push_back(item.expect("item built for every admissible push"));
        q.queued_samples += incoming;
        q.enqueued_total += incoming;
        let queued_samples = q.queued_samples;
        drop(st);
        handle.counters.queue_depth_hwm.observe(queued_samples as u64);

        handle.counters.samples_in.fetch_add(incoming as u64, Ordering::Relaxed);
        if dropped > 0 {
            handle.counters.dropped_samples.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        handle.shared.cv.notify_one();
        Ok(PushReceipt { queued_samples, dropped_samples: dropped })
    }

    /// Drains the session's completed output — separated blocks for
    /// [`SessionKind::Separation`], SpO2 windows for
    /// [`SessionKind::Oximetry`] — and surfaces its sticky failure, if
    /// any (the error stays set until the session is closed).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for a closed or foreign id.
    pub fn poll(&self, id: SessionId) -> Result<SessionOutput, ServeError> {
        let shared = {
            let sessions = self.sessions.lock().unwrap();
            let e = sessions.get(&id.0).ok_or(ServeError::UnknownSession(id))?;
            Arc::clone(&e.shared)
        };
        let mut mailbox = shared.mailbox.lock().unwrap();
        Ok(SessionOutput {
            blocks: std::mem::take(&mut mailbox.blocks),
            spo2: std::mem::take(&mut mailbox.spo2),
            error: mailbox.error.clone(),
        })
    }

    /// Closes a session: its queued packets are processed, the stream is
    /// flushed, and every block not yet polled is returned. Blocks until
    /// the worker has drained the session.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — never opened or already closed.
    /// * [`ServeError::WorkerLost`] — the shard's worker thread died.
    pub fn close(&self, id: SessionId) -> Result<CloseOutcome, ServeError> {
        let shard = {
            let mut sessions = self.sessions.lock().unwrap();
            sessions.remove(&id.0).ok_or(ServeError::UnknownSession(id))?.shard
        };
        let (ack_tx, ack_rx) = mpsc::channel();
        {
            let mut st = self.shards[shard].shared.state.lock().unwrap();
            let leftovers =
                st.queues.remove(&id.0).map(|q| q.items.into_iter().collect()).unwrap_or_default();
            st.commands.push_back(Command::Close { id: id.0, leftovers, ack: ack_tx });
        }
        self.shards[shard].shared.cv.notify_one();
        // A plain recv() could hang forever against a dead worker: the
        // ack sender sits inside the (still-alive) command queue, so the
        // channel never disconnects. Poll the worker's liveness while
        // waiting instead.
        loop {
            match ack_rx.recv_timeout(std::time::Duration::from_millis(50)) {
                Ok(outcome) => return Ok(outcome),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ServeError::WorkerLost { shard });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let dead = match self.shards[shard].join.as_ref() {
                        Some(join) => join.is_finished(),
                        None => true,
                    };
                    if dead {
                        // Final non-blocking look: the worker may have
                        // acked just before exiting.
                        return ack_rx.try_recv().map_err(|_| ServeError::WorkerLost { shard });
                    }
                }
            }
        }
    }

    /// Takes a point-in-time telemetry snapshot across all shards.
    pub fn telemetry(&self) -> Telemetry {
        let elapsed = self.started.elapsed();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let (open_sessions, queue_depth) = {
                    let st = h.shared.state.lock().unwrap();
                    (st.queues.len(), st.queues.values().map(|q| q.queued_samples).sum())
                };
                h.counters.snapshot(i, open_sessions, queue_depth, elapsed)
            })
            .collect();
        Telemetry { elapsed, shards }
    }

    /// Graceful shutdown: closes (and thereby flushes) every open session
    /// in id order, stops the workers, joins them, and returns the final
    /// per-session outcomes plus a last telemetry snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] if a worker died mid-shutdown.
    pub fn shutdown(mut self) -> Result<ShutdownReport, ServeError> {
        let mut ids: Vec<u64> = self.sessions.lock().unwrap().keys().copied().collect();
        ids.sort_unstable();
        let mut sessions = Vec::with_capacity(ids.len());
        for id in ids {
            let outcome = self.close(SessionId(id))?;
            sessions.push((SessionId(id), outcome));
        }
        let telemetry = self.telemetry();
        self.stop_workers();
        Ok(ShutdownReport { sessions, telemetry })
    }

    /// Signals every worker to exit and joins the threads. Idempotent.
    fn stop_workers(&mut self) {
        for h in &self.shards {
            h.shared.state.lock().unwrap().stop = true;
            h.shared.cv.notify_one();
        }
        for h in &mut self.shards {
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for SessionManager {
    /// Hard stop: workers exit after their current batch; unflushed
    /// sessions are discarded. Use [`shutdown`](Self::shutdown) for the
    /// graceful path.
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// What [`SessionManager::shutdown`] leaves behind.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final outcome of every session still open at shutdown, in id
    /// order.
    pub sessions: Vec<(SessionId, CloseOutcome)>,
    /// Telemetry at the end of the run (taken after all flushes).
    pub telemetry: Telemetry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_core::DhfConfig;

    fn stream_cfg(chunk_len: usize, overlap: usize) -> StreamingConfig {
        StreamingConfig::new(chunk_len, overlap, DhfConfig::fast().with_harmonic_interp()).unwrap()
    }

    /// Two drifting quasi-periodic sources (the shared fixture), offset
    /// by `variant` so different sessions carry different streams.
    fn make_mix(fs: f64, n: usize, variant: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let duet = dhf_synth::duet::drifting_duet(fs, n, variant as u64);
        (duet.mixed, duet.f0_tracks)
    }

    /// Serial reference: the same stream through one StreamingSeparator.
    fn serial_reference(
        fs: f64,
        mix: &[f64],
        tracks: &[Vec<f64>],
        scfg: &StreamingConfig,
    ) -> (Vec<Vec<f64>>, usize) {
        dhf_stream::separate_streamed(mix, fs, tracks, scfg).unwrap()
    }

    #[test]
    fn lifecycle_open_push_poll_close_matches_serial() {
        let fs = 100.0;
        let n = 7000;
        let (mix, tracks) = make_mix(fs, n, 0);
        let scfg = stream_cfg(3000, 400);
        let (want, want_dropped) = serial_reference(fs, &mix, &tracks, &scfg);

        let manager = SessionManager::new(ServeConfig::new(2).unwrap());
        let id = manager.open(fs, 2, scfg).unwrap();
        assert_eq!(manager.open_sessions(), 1);

        let mut got = vec![Vec::new(); 2];
        let mut deliver = |blocks: Vec<dhf_stream::StreamBlock>| {
            for b in blocks {
                assert_eq!(got[0].len(), b.start, "blocks must arrive contiguous and in order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[src].extend_from_slice(est);
                }
            }
        };
        for lo in (0..n).step_by(500) {
            let hi = (lo + 500).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            let receipt = manager.push(id, &mix[lo..hi], &t).unwrap();
            assert_eq!(receipt.dropped_samples, 0);
            let out = manager.poll(id).unwrap();
            assert!(out.error.is_none());
            deliver(out.blocks);
        }
        let fin = manager.close(id).unwrap();
        assert!(fin.error.is_none());
        assert_eq!(fin.dropped_samples, want_dropped);
        deliver(fin.blocks);
        assert_eq!(manager.open_sessions(), 0);
        assert_eq!(got, want, "served output must be bit-identical to the serial run");

        // The id is gone now.
        assert!(matches!(manager.poll(id), Err(ServeError::UnknownSession(_))));
        assert!(matches!(manager.close(id), Err(ServeError::UnknownSession(_))));
    }

    #[test]
    fn push_validates_synchronously() {
        let fs = 100.0;
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let id = manager.open(fs, 2, stream_cfg(3000, 600)).unwrap();
        let zeros = [0.0f64; 100];
        let good = vec![1.3f64; 100];
        assert!(manager.push(id, &zeros, &[&good, &good]).is_ok());

        assert!(matches!(
            manager.push(id, &zeros, &[&good]),
            Err(ServeError::Session(StreamError::SourceCountMismatch { expected: 2, got: 1 }))
        ));
        let short = vec![1.3f64; 99];
        assert!(matches!(
            manager.push(id, &zeros, &[&good, &short]),
            Err(ServeError::Session(StreamError::TrackLengthMismatch { signal: 100, track: 99 }))
        ));
        // Absolute position in the accepted stream: 100 (already queued)
        // + 40.
        let mut bad = vec![1.3f64; 100];
        bad[40] = -1.0;
        assert!(matches!(
            manager.push(id, &zeros, &[&good, &bad]),
            Err(ServeError::Session(StreamError::NonPositiveTrackValue { track: 1, sample: 140 }))
        ));

        // Unknown session.
        let ghost = SessionId(4096);
        assert!(matches!(
            manager.push(ghost, &zeros, &[&good, &good]),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn busy_policy_rejects_overflow_and_counts_it() {
        let fs = 100.0;
        let cfg = ServeConfig::new(1).unwrap().with_queue_capacity(250).unwrap();
        let manager = SessionManager::new(cfg);
        // A session with sources the engine never completes a chunk for
        // (chunk_len far beyond what we push), so the queue only drains.
        let id = manager.open(fs, 1, stream_cfg(30_000, 0)).unwrap();
        let samples = vec![0.0f64; 200];
        let track = vec![1.3f64; 200];

        let receipt = manager.push(id, &samples, &[&track]).unwrap();
        assert_eq!(receipt.queued_samples, 200);
        // 200 + 200 > 250: Busy — and nothing already queued is lost.
        // (The worker may have drained the queue already, so accept either
        // a Busy rejection or a success with an emptied queue.)
        match manager.push(id, &samples, &[&track]) {
            Err(ServeError::Busy { queued_samples, incoming: 200, capacity: 250, .. }) => {
                assert!(queued_samples > 0);
                assert!(manager.telemetry().busy_rejections() >= 1);
            }
            Ok(r) => assert!(r.queued_samples <= 250, "accepted only if the queue drained"),
            Err(e) => panic!("unexpected error: {e}"),
        }

        // A packet larger than the whole capacity is Busy under every
        // policy.
        let huge = vec![0.0f64; 251];
        let huge_track = vec![1.3f64; 251];
        assert!(matches!(
            manager.push(id, &huge, &[&huge_track]),
            Err(ServeError::Busy { incoming: 251, capacity: 250, .. })
        ));
    }

    #[test]
    fn drop_oldest_policy_evicts_and_reports() {
        let fs = 100.0;
        let cfg = ServeConfig::new(1)
            .unwrap()
            .with_queue_capacity(500)
            .unwrap()
            .with_backpressure(BackpressurePolicy::DropOldest);
        let manager = SessionManager::new(cfg);
        let id = manager.open(fs, 1, stream_cfg(30_000, 0)).unwrap();
        let track = vec![1.3f64; 200];
        let samples = vec![0.0f64; 200];

        // Stuff the queue far past capacity; every push must be accepted
        // and evictions must be reported.
        let mut dropped_total = 0usize;
        let mut receipt = None;
        for _ in 0..8 {
            let r = manager.push(id, &samples, &[&track]).unwrap();
            dropped_total += r.dropped_samples;
            receipt = Some(r);
        }
        let receipt = receipt.unwrap();
        assert!(receipt.queued_samples <= 500, "queue bound must hold");
        // The worker races the pushes, so we cannot pin the exact count —
        // but pushing 1600 samples through a 500-sample queue with a
        // 30 000-sample chunk (nothing ever emitted) must evict.
        let telemetry = manager.telemetry();
        assert_eq!(telemetry.busy_rejections(), 0, "DropOldest never rejects");
        assert_eq!(dropped_total as u64, telemetry.dropped_samples());
        assert!(dropped_total > 0, "overflow must evict under DropOldest");
    }

    #[test]
    fn failed_session_is_sticky_and_closable() {
        let fs = 100.0;
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let id = manager.open(fs, 1, stream_cfg(3000, 0)).unwrap();
        let n = 3000;
        let mixed: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 1.3 * i as f64 / fs).sin()).collect();
        // A track so slow the chunk unwarps to nothing: the worker-side
        // separation fails.
        let track = vec![1e-7f64; n];
        manager.push(id, &mixed, &[&track]).unwrap();

        // The failure is asynchronous; wait for the worker to surface it.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let out = manager.poll(id).unwrap();
            if out.error.is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "worker never surfaced the failure");
            std::thread::yield_now();
        }
        // Pushes are now rejected with the sticky error…
        assert!(matches!(
            manager.push(id, &mixed, &[&track]),
            Err(ServeError::SessionFailed { .. })
        ));
        // …but close still works and reports the error.
        let fin = manager.close(id).unwrap();
        assert!(fin.error.is_some());
        // Even through the failure, the telemetry books close: the one
        // accepted packet (the rejected second push buffered nothing) is
        // fully accounted as dropped, since nothing ever came out.
        let telemetry = manager.telemetry();
        assert_eq!(telemetry.samples_in(), n as u64);
        assert_eq!(telemetry.samples_out() + telemetry.dropped_samples(), n as u64);
        assert_eq!(fin.dropped_samples, n);
    }

    #[test]
    fn mid_stream_failure_accounts_for_every_accepted_sample() {
        let fs = 100.0;
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let id = manager.open(fs, 1, stream_cfg(3000, 0)).unwrap();
        let n = 3000;
        let mixed: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 1.3 * i as f64 / fs).sin()).collect();
        // The first packet's track is valid at push time (positive,
        // finite) but unwarps to nothing — the chunk fails on the worker.
        let bad = vec![1e-7f64; n];
        manager.push(id, &mixed, &[&bad]).unwrap();
        let mut accepted = n;

        // Race more packets in; each is either accepted (and must be
        // accounted) or rejected by the sticky error (and buffers
        // nothing).
        let good = vec![1.3f64; 500];
        for _ in 0..10 {
            match manager.push(id, &mixed[..500], &[&good]) {
                Ok(_) => accepted += 500,
                Err(ServeError::SessionFailed { .. }) => break,
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }

        let fin = manager.close(id).unwrap();
        assert!(fin.error.is_some());
        let delivered: usize = fin.blocks.iter().map(|b| b.len()).sum();
        assert_eq!(
            delivered + fin.dropped_samples,
            accepted,
            "the per-session books must close through a mid-stream failure"
        );
        let telemetry = manager.telemetry();
        assert_eq!(telemetry.samples_in(), accepted as u64);
        assert_eq!(telemetry.samples_out() + telemetry.dropped_samples(), accepted as u64);
    }

    #[test]
    fn shutdown_flushes_every_session() {
        let fs = 100.0;
        let n = 4000;
        let scfg = stream_cfg(3000, 400);
        let manager = SessionManager::new(ServeConfig::new(3).unwrap());

        let mut expected = HashMap::new();
        for variant in 0..5 {
            let (mix, tracks) = make_mix(fs, n, variant);
            let id = manager.open(fs, 2, scfg.clone()).unwrap();
            let t: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();
            manager.push(id, &mix, &t).unwrap();
            expected.insert(id, serial_reference(fs, &mix, &tracks, &scfg));
        }
        assert_eq!(manager.open_sessions(), 5);

        let report = manager.shutdown().unwrap();
        assert_eq!(report.sessions.len(), 5);
        for (id, outcome) in report.sessions {
            let (want, want_dropped) = expected.remove(&id).expect("reported id was opened");
            assert_eq!(outcome.dropped_samples, want_dropped);
            assert_eq!(outcome.into_sources(), want, "{id} must flush to the serial output");
        }
        // Every sample pushed came back out.
        assert_eq!(report.telemetry.samples_in(), 5 * n as u64);
        assert_eq!(report.telemetry.samples_out(), 5 * n as u64);
        assert!(report.telemetry.latency_percentile(50.0).is_some());
    }

    #[test]
    fn telemetry_accounts_for_all_work() {
        let fs = 100.0;
        let n = 6200;
        let scfg = stream_cfg(3000, 600);
        let manager = SessionManager::new(ServeConfig::new(2).unwrap());
        let mut ids = Vec::new();
        for variant in 0..4 {
            let (mix, tracks) = make_mix(fs, n, variant);
            let id = manager.open(fs, 2, scfg.clone()).unwrap();
            for lo in (0..n).step_by(777) {
                let hi = (lo + 777).min(n);
                let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
                manager.push(id, &mix[lo..hi], &t).unwrap();
            }
            ids.push(id);
        }
        for id in ids {
            manager.close(id).unwrap();
        }
        let telemetry = manager.telemetry();
        assert_eq!(telemetry.samples_in(), 4 * n as u64);
        assert_eq!(telemetry.samples_out() + telemetry.dropped_samples(), 4 * n as u64);
        assert_eq!(telemetry.shards.len(), 2);
        // Queues are empty after close, and the latency histogram saw
        // every packet.
        let packets: u64 = telemetry.shards.iter().map(|s| s.packets_processed).sum();
        assert_eq!(telemetry.latency().count(), packets);
        for s in &telemetry.shards {
            assert_eq!(s.queue_depth_samples, 0);
            assert_eq!(s.open_sessions, 0);
        }
        let p50 = telemetry.latency_percentile(50.0).unwrap();
        let p99 = telemetry.latency_percentile(99.0).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn samples_per_sec_uses_the_active_window_not_the_idle_tail() {
        let fs = 100.0;
        let n = 6200;
        let (mix, tracks) = make_mix(fs, n, 2);
        let t: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let id = manager.open(fs, 2, stream_cfg(3000, 600)).unwrap();
        manager.push(id, &mix, &t).unwrap();
        manager.close(id).unwrap();

        let quiesced = manager.telemetry();
        assert!(quiesced.samples_per_sec() > 0.0);
        std::thread::sleep(std::time::Duration::from_millis(400));
        let later = manager.telemetry();
        // Wall time moved on; the active window (and therefore the
        // reported throughput) must not.
        assert!(later.elapsed > quiesced.elapsed);
        assert!(
            later.active_secs() + 0.3 < later.elapsed.as_secs_f64(),
            "active window must exclude the idle tail: active {} vs wall {}",
            later.active_secs(),
            later.elapsed.as_secs_f64()
        );
        let drift = (later.samples_per_sec() - quiesced.samples_per_sec()).abs()
            / quiesced.samples_per_sec();
        assert!(drift < 1e-9, "throughput must be stable across an idle tail, drift {drift}");
    }

    #[test]
    fn tracing_fills_stage_breakdown_gauges_and_exporters() {
        let fs = 100.0;
        let n = 6200;
        let (mix, tracks) = make_mix(fs, n, 3);
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        // HPSS front filter on, so the artifact-scenario session shape
        // (the one `loadgen DHF_SCENARIO=artifact` opens) is the one
        // whose stage profile the exporters must carry.
        let scfg = stream_cfg(3000, 600).with_hpss_front(dhf_stream::HpssFrontConfig::default());
        let id = manager.open(fs, 2, scfg).unwrap();
        dhf_obs::set_enabled(true);
        for lo in (0..n).step_by(700) {
            let hi = (lo + 700).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(id, &mix[lo..hi], &t).unwrap();
        }
        // Let the worker drain the queue through its batch path (a close
        // issued immediately would route every packet through the
        // close-leftovers path instead, and no scheduling batch would
        // ever run).
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while manager.telemetry().shards.iter().any(|s| s.queue_depth_samples > 0) {
            assert!(Instant::now() < deadline, "worker never drained the queue");
            std::thread::yield_now();
        }
        manager.close(id).unwrap();
        dhf_obs::set_enabled(false);

        let telemetry = manager.telemetry();
        let stages = telemetry.stage_breakdown();
        assert!(!stages.is_empty(), "tracing was on: the breakdown must have samples");
        // Every layer contributed: serve scheduling, stream chunking, and
        // the core/dsp pipeline stages inside each chunk.
        for stage in [
            dhf_obs::Stage::QueueWait,
            dhf_obs::Stage::EngineRun,
            dhf_obs::Stage::BatchRun,
            dhf_obs::Stage::ChunkAdvance,
            dhf_obs::Stage::HpssFilter,
            dhf_obs::Stage::StftAnalysis,
            dhf_obs::Stage::MaskBuild,
            dhf_obs::Stage::Istft,
        ] {
            assert!(stages.stage(stage).count() > 0, "no samples for stage {stage}");
        }
        // Packet-level spans cover every processed packet.
        let packets: u64 = telemetry.shards.iter().map(|s| s.packets_processed).sum();
        assert_eq!(stages.stage(dhf_obs::Stage::QueueWait).count(), packets);
        assert_eq!(stages.stage(dhf_obs::Stage::EngineRun).count(), packets);

        // Occupancy gauges moved.
        assert!(telemetry.queue_depth_hwm() > 0);
        assert!(telemetry.batch_packets_hwm() > 0);
        assert!(telemetry.batch_sessions_hwm() > 0);

        // Both human and machine renderings carry the new columns/blocks.
        let table = telemetry.to_string();
        assert!(table.contains(" plans "), "per-shard plans column:\n{table}");
        assert!(table.contains("spo2"), "per-shard spo2 column:\n{table}");
        assert!(table.contains("stages (fleet"), "stage summary:\n{table}");
        assert!(table.contains("engine_run"), "stage rows:\n{table}");
        assert!(table.contains("hpss_filter"), "front-filter stage row:\n{table}");
        let prom = telemetry.prometheus();
        assert!(prom.contains("# TYPE dhf_stage_seconds summary"));
        assert!(prom.contains("dhf_stage_seconds{stage=\"chunk_advance\",quantile=\"0.5\"}"));
        assert!(prom.contains("dhf_samples_out_total{shard=\"0\"}"));
        assert!(prom.contains("dhf_queue_depth_hwm_samples{shard=\"0\"}"));
    }

    #[test]
    fn plans_built_gauge_is_live_for_open_sessions() {
        let fs = 100.0;
        let n = 7000;
        let (mix, tracks) = make_mix(fs, n, 1);
        let scfg = stream_cfg(3000, 400);
        let t: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();

        // Serial reference for the expected plan-cache footprint of the
        // same stream: mid-stream (what the batch booking must surface
        // while the session is open) and total after the flush.
        let mut serial = dhf_stream::StreamingSeparator::new(fs, 2, scfg.clone()).unwrap();
        serial.push(&mix, &t).unwrap();
        let plans_mid_stream = serial.fft_plans_built();
        serial.flush().unwrap();
        let plans_total = serial.fft_plans_built();
        assert!(plans_mid_stream > 0, "fixture must build plans before the flush");

        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let id = manager.open(fs, 2, scfg).unwrap();
        manager.push(id, &mix, &t).unwrap();
        // One push is one packet, so one scheduling batch processes it
        // and books the whole mid-stream delta in a single step — the
        // gauge goes from 0 straight to the serial reference while the
        // session is still open. (Before the delta booking it stayed 0
        // until close.)
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let plans = manager.telemetry().plans_built();
            if plans > 0 {
                assert_eq!(plans, plans_mid_stream as u64);
                break;
            }
            assert!(Instant::now() < deadline, "plans_built stayed 0 for the open session");
            std::thread::yield_now();
        }
        assert_eq!(manager.open_sessions(), 1, "the gauge must move before close");

        // Close books only the flush residual on top — no double count
        // of what the batches already booked.
        manager.close(id).unwrap();
        assert_eq!(manager.telemetry().plans_built(), plans_total as u64);
    }

    #[test]
    fn warm_pool_seeds_successor_sessions() {
        let fs = 100.0;
        let n = 3000; // exactly one analysis chunk
        let (mix, tracks) = make_mix(fs, n, 2);
        // Deep-prior path with warm starting; one source keeps the
        // debug-build fit budget small, and zero overlap makes the push
        // exactly one fit (no shrunken flush chunk muddying the counts).
        let scfg = StreamingConfig::new(3000, 0, DhfConfig::fast()).unwrap().with_warm_start();
        let tracks1 = [tracks[0].clone()];
        let t: Vec<&[f64]> = tracks1.iter().map(Vec::as_slice).collect();
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());

        let id = manager.open(fs, 1, scfg.clone()).unwrap();
        manager.push(id, &mix, &t).unwrap();
        manager.close(id).unwrap();
        let tele = manager.telemetry();
        assert_eq!(tele.cold_fits(), 1, "the first session's only chunk trains cold");
        assert_eq!(tele.warm_hits(), 0);
        assert_eq!(tele.warm_pool_size(), 1, "close must park the trained weights");

        // A same-shape successor adopts the parked weights, so even its
        // *first* chunk fine-tunes warm; its close re-parks them.
        let id = manager.open(fs, 1, scfg.clone()).unwrap();
        manager.push(id, &mix, &t).unwrap();
        manager.close(id).unwrap();
        let tele = manager.telemetry();
        assert_eq!(tele.warm_hits(), 1, "the successor's first chunk must resume warm");
        assert_eq!(tele.cold_fits(), 1);
        assert_eq!(tele.warm_pool_size(), 1);

        // A different-shape session (here: another sample rate) leaves
        // the pool alone.
        let id = manager.open(101.0, 1, scfg).unwrap();
        manager.push(id, &mix, &t).unwrap();
        manager.close(id).unwrap();
        let tele = manager.telemetry();
        assert_eq!(tele.cold_fits(), 2, "a different shape must not adopt pooled weights");
        assert_eq!(tele.warm_pool_size(), 2, "each shape parks its own snapshots");

        // The counters surface in both exporters.
        let table = tele.to_string();
        assert!(table.contains("warm"), "Display table must carry the warm column:\n{table}");
        let prom = tele.prometheus();
        assert!(prom.contains("dhf_warm_fits_total{shard=\"0\"} 1"));
        assert!(prom.contains("dhf_cold_fits_total{shard=\"0\"} 2"));
        assert!(prom.contains("dhf_warm_pool_size{shard=\"0\"} 2"));
    }

    /// Shared oximetry fixture: a short desaturation recording plus the
    /// session configs driving it.
    fn oximetry_fixture() -> (dhf_synth::invivo::TfoRecording, StreamingConfig, OximetryConfig) {
        use dhf_synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
        let rec = generate(
            &DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 80.0).with_seed(11),
        );
        let scfg = stream_cfg(3000, 600);
        let cal = dhf_oximetry::Calibration {
            w0: dhf_synth::invivo::CALIBRATION_W0,
            w1: dhf_synth::invivo::CALIBRATION_W1,
            k: dhf_synth::invivo::CALIBRATION_K,
        };
        let ocfg = OximetryConfig::new(1, 2000, 1000, cal).unwrap();
        (rec, scfg, ocfg)
    }

    #[test]
    fn oximetry_session_matches_a_serial_oximeter() {
        let (rec, scfg, ocfg) = oximetry_fixture();
        let fs = rec.config.fs;
        let n = rec.mixed[0].len();

        // Serial reference.
        let mut serial = StreamingOximeter::new(fs, 2, scfg.clone(), ocfg.clone()).unwrap();
        let mut want = Vec::new();
        for lo in (0..n).step_by(500) {
            let hi = (lo + 500).min(n);
            let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
            want.extend(serial.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &t).unwrap());
        }
        want.extend(serial.flush().unwrap().samples);
        assert!(!want.is_empty(), "fixture must emit SpO2 windows");

        // Served.
        let manager = SessionManager::new(ServeConfig::new(2).unwrap());
        let id = manager.open_oximetry(fs, 2, scfg, ocfg).unwrap();
        let mut got = Vec::new();
        for lo in (0..n).step_by(500) {
            let hi = (lo + 500).min(n);
            let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
            manager.push_oximetry(id, &rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi], &t).unwrap();
            let out = manager.poll(id).unwrap();
            assert!(out.error.is_none());
            assert!(out.blocks.is_empty(), "oximetry sessions emit SpO2, not blocks");
            got.extend(out.spo2);
        }
        let fin = manager.close(id).unwrap();
        assert!(fin.error.is_none());
        assert_eq!(fin.dropped_samples, 0);
        got.extend(fin.spo2);
        assert_eq!(got, want, "served SpO2 trend must be bit-identical to the serial run");

        // The books close: per-channel stream samples in = out, and the
        // trend stats saw every window.
        let telemetry = manager.telemetry();
        assert_eq!(telemetry.samples_in(), n as u64);
        assert_eq!(telemetry.samples_out(), n as u64);
        assert_eq!(telemetry.spo2_updates(), want.len() as u64);
        let stats = telemetry.spo2_stats();
        assert_eq!(stats.count(), want.len() as u64);
        let (min, max) = want.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(s.spo2), hi.max(s.spo2))
        });
        assert_eq!(stats.min(), Some(min));
        assert_eq!(stats.max(), Some(max));
        assert!(stats.mean().unwrap() >= min && stats.mean().unwrap() <= max);
    }

    #[test]
    fn push_apis_enforce_session_kind() {
        let fs = 100.0;
        let manager = SessionManager::new(ServeConfig::new(1).unwrap());
        let sep_id = manager.open(fs, 2, stream_cfg(3000, 600)).unwrap();
        let ocfg =
            OximetryConfig::new(1, 2000, 1000, dhf_oximetry::Calibration::default()).unwrap();
        let ox_id = manager.open_oximetry(fs, 2, stream_cfg(3000, 600), ocfg).unwrap();

        let samples = vec![0.0f64; 100];
        let track = vec![1.3f64; 100];
        let t: [&[f64]; 2] = [&track, &track];
        // Wrong API for each kind.
        assert!(matches!(
            manager.push_oximetry(sep_id, &samples, &samples, &t),
            Err(ServeError::KindMismatch { kind: SessionKind::Separation, .. })
        ));
        assert!(matches!(
            manager.push(ox_id, &samples, &t),
            Err(ServeError::KindMismatch { kind: SessionKind::Oximetry, .. })
        ));
        // Channel misalignment is rejected synchronously.
        let short = vec![0.0f64; 99];
        assert!(matches!(
            manager.push_oximetry(ox_id, &samples, &short, &t),
            Err(ServeError::Oximetry(dhf_oximetry::OximetryError::ChannelLengthMismatch {
                lambda1: 100,
                lambda2: 99,
            }))
        ));
        // Track validation mirrors the separation push API.
        let mut bad = vec![1.3f64; 100];
        bad[7] = f64::NAN;
        assert!(matches!(
            manager.push_oximetry(ox_id, &samples, &samples, &[&track, &bad]),
            Err(ServeError::Session(StreamError::NonPositiveTrackValue { track: 1, sample: 7 }))
        ));
        // The matching APIs work.
        assert!(manager.push(sep_id, &samples, &t).is_ok());
        assert!(manager.push_oximetry(ox_id, &samples, &samples, &t).is_ok());
    }

    #[test]
    fn sessions_spread_over_shards() {
        // 64 hash-sharded ids over 4 shards: no shard may be starved or
        // overloaded beyond 3x the fair share (the hash is fixed, so this
        // is deterministic).
        let counts = (1..=64u64).fold(vec![0usize; 4], |mut acc, id| {
            acc[shard_of(id, 4)] += 1;
            acc
        });
        assert_eq!(counts.iter().sum::<usize>(), 64);
        for (shard, &c) in counts.iter().enumerate() {
            assert!((4..=48).contains(&c), "shard {shard} got {c} of 64 sessions");
        }
    }
}
