//! Multi-patient streaming service: many concurrent [`StreamingFirmware`]
//! sessions multiplexed over the `hbc-par` runner.
//!
//! A production node fleet terminates one sample stream per patient. The
//! [`StreamHub`] models that service point on the host: each patient gets an
//! independent push-based firmware session (bounded memory, bit-identical to
//! the batch pipeline), arriving chunks are dispatched over all cores with
//! the same deterministic work-stealing runner the evaluation engine uses,
//! and per-session figures of merit are merged **in session order** through
//! [`EvaluationReport::merge`] — so the fleet-wide report is bit-identical
//! for any thread count, like every other parallel path in this workspace.
//!
//! Ground truth is unknown while streaming; outcomes are labelled after the
//! fact by matching emitted peak positions against reference annotations
//! with the same tolerance the batch firmware reports with.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hbc_dsp::window::match_peaks;
use hbc_dsp::{FrontendScratch, MorphologicalFilter, PeakDetector, PeakThresholds};
use hbc_ecg::record::Annotation;
use hbc_embedded::firmware::BeatOutcome;
use hbc_embedded::{StageMetrics, StreamingFirmware, WbsnFirmware};
use hbc_nfc::EvaluationReport;
use hbc_obs::Histogram;
use hbc_par::Par;

use crate::{CoreError, Result};

/// Handle of one patient session inside a [`StreamHub`].
///
/// Slots freed by [`StreamHub::close_session`] are reused by later
/// [`StreamHub::add_patient`] calls, so a handle is only meaningful until its
/// session is closed — a stale handle afterwards either errors (slot still
/// free) or aliases the new occupant. Serving layers that need to detect
/// stale handles (e.g. the network gateway) keep their own wire-level ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// Position of the session in the hub (also its merge order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Everything a closed session leaves behind: identity, the complete outcome
/// stream and the session counters. Produced by [`StreamHub::close_session`];
/// figures of merit become available once ground truth is supplied to
/// [`SessionReport::labelled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Patient identifier the session was registered with.
    pub patient_id: u32,
    /// Every beat outcome the session emitted, in temporal order.
    pub outcomes: Vec<BeatOutcome>,
    /// Raw samples the session ingested.
    pub samples_pushed: usize,
    /// Beats forwarded to the delineation stage.
    pub forwarded_beats: usize,
}

impl SessionReport {
    /// Labels the session's beats against reference annotations (two-pointer
    /// position matching within `tolerance` samples, unmatched beats ignored
    /// — the same convention as [`StreamHub::session_report`]) and returns
    /// the figures of merit.
    pub fn labelled(&self, annotations: &[Annotation], tolerance: usize) -> EvaluationReport {
        report_for(&self.outcomes, annotations, tolerance)
    }
}

/// One patient's live session: the streaming firmware plus the outcomes it
/// has emitted so far.
#[derive(Debug)]
struct PatientStream<'fw> {
    patient_id: u32,
    stream: StreamingFirmware<'fw>,
    outcomes: Vec<BeatOutcome>,
    /// The last [`StreamHub::ingest`] batch that listed this session; a
    /// second listing in the same batch is a duplicate feed.
    batch: u64,
}

impl PatientStream<'_> {
    fn drain(&mut self) {
        while let Some(o) = self.stream.pop_outcome() {
            self.outcomes.push(o);
        }
    }
}

/// Multiplexes many concurrent per-patient [`StreamingFirmware`] sessions
/// over the deterministic parallel runner.
///
/// Sessions are independent, so a batch of chunks — at most one per session
/// — is ingested with one parallel sweep; results (emitted beats, reports)
/// depend only on each session's own sample stream, never on scheduling.
#[derive(Debug)]
pub struct StreamHub<'fw> {
    firmware: &'fw WbsnFirmware,
    fs: f64,
    par: Par,
    /// Session slots. A closed session leaves a `None` hole whose index is
    /// queued on the free list and handed to the next [`Self::add_patient`].
    sessions: Vec<Mutex<Option<PatientStream<'fw>>>>,
    /// Indices of free slots, reused LIFO.
    free: Vec<usize>,
    /// Session-setup working sets: conditioning-chain scratch + filtered
    /// buffer pairs, pooled so concurrent `calibrate_thresholds` calls
    /// (calibration takes `&self`) each pop one, compute unlocked, and push
    /// it back — the lock is held for the pop/push only, never across the
    /// O(n) filter+wavelet work. The pool is bounded by the peak number of
    /// concurrent calibrations. Sits alongside the per-session `BeatScratch`
    /// the streaming firmware already owns.
    calibration: Mutex<Vec<CalibrationScratch>>,
    /// Number of the next [`Self::ingest`] batch (batch numbers start at 1,
    /// so a fresh session's `batch` of 0 never matches).
    next_batch: AtomicU64,
    /// Wall-clock microseconds per [`Self::ingest`] batch (the full parallel
    /// sweep). Behind a mutex because `ingest` takes `&self`; uncontended in
    /// the single-reactor serving path.
    ingest_micros: Mutex<Histogram>,
    /// Stage histograms of sessions that have closed, merged at close time
    /// so their timings survive slot reuse.
    closed_stages: StageMetrics,
}

/// Buffers for one threshold calibration: the front-end scratch plus the
/// baseline-filtered stretch the detector calibrates on.
#[derive(Debug, Default)]
struct CalibrationScratch {
    frontend: FrontendScratch,
    filtered: Vec<f64>,
}

impl<'fw> StreamHub<'fw> {
    /// Creates a hub serving sessions of `firmware` at sampling rate `fs`,
    /// using one worker per core.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive (propagated from the DSP stages when
    /// the first session is added).
    pub fn new(firmware: &'fw WbsnFirmware, fs: f64) -> Self {
        Self::with_threads(firmware, fs, None)
    }

    /// Creates a hub with an explicit worker-thread policy (`None` = one per
    /// core).
    pub fn with_threads(
        firmware: &'fw WbsnFirmware,
        fs: f64,
        threads: Option<NonZeroUsize>,
    ) -> Self {
        StreamHub {
            firmware,
            fs,
            par: Par::with_threads(threads),
            sessions: Vec::new(),
            free: Vec::new(),
            calibration: Mutex::new(Vec::new()),
            next_batch: AtomicU64::new(1),
            ingest_micros: Mutex::new(Histogram::new()),
            closed_stages: StageMetrics::default(),
        }
    }

    /// Number of session slots (active sessions plus reusable holes left by
    /// closed ones) — the upper bound a caller may have handles for.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of sessions currently live (slots not yet closed).
    pub fn active_sessions(&self) -> usize {
        self.sessions.len() - self.free.len()
    }

    /// Derives per-patient detection thresholds from a raw calibration
    /// stretch (typically the first seconds of the patient's signal): the
    /// stretch is baseline-filtered and the detector's RMS calibration runs
    /// over it — the same procedure the batch path applies to whole records.
    ///
    /// # Errors
    ///
    /// Returns an error when the stretch is too short for the filter or the
    /// wavelet decomposition.
    pub fn calibrate_thresholds(&self, raw: &[f64]) -> Result<PeakThresholds> {
        let mut scratch = self
            .calibration
            .lock()
            .expect("calibration pool poisoned")
            .pop()
            .unwrap_or_default();
        let CalibrationScratch { frontend, filtered } = &mut scratch;
        let thresholds = MorphologicalFilter::for_sampling_rate(self.fs)
            .apply_into(raw, frontend, filtered)
            .map_err(CoreError::from)
            .and_then(|()| {
                Ok(PeakDetector::new(self.fs).calibrate_with_scratch(filtered, frontend)?)
            });
        self.calibration
            .lock()
            .expect("calibration pool poisoned")
            .push(scratch);
        thresholds
    }

    /// Registers a new patient session with fixed detection thresholds,
    /// returning its handle. Slots freed by [`Self::close_session`] are
    /// reused (most recently freed first); otherwise a new slot is appended.
    /// Slot order is merge order.
    pub fn add_patient(&mut self, patient_id: u32, thresholds: PeakThresholds) -> SessionId {
        let session = PatientStream {
            patient_id,
            stream: StreamingFirmware::new(self.firmware, self.fs, thresholds),
            outcomes: Vec::new(),
            batch: 0,
        };
        match self.free.pop() {
            Some(index) => {
                *self.sessions[index].lock().expect("session poisoned") = Some(session);
                SessionId(index)
            }
            None => {
                self.sessions.push(Mutex::new(Some(session)));
                SessionId(self.sessions.len() - 1)
            }
        }
    }

    /// Closes one session: its stream is finished (borders drained, all
    /// remaining beats emitted), the complete outcome history is returned as
    /// a [`SessionReport`], and the slot is freed for reuse by the next
    /// [`Self::add_patient`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or already-closed
    /// session.
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionReport> {
        let mut slot = self.session(id)?.lock().expect("session poisoned");
        let mut session = slot
            .take()
            .ok_or_else(|| CoreError::Config(format!("session #{} already closed", id.0)))?;
        drop(slot);
        session.stream.finish();
        session.drain();
        self.closed_stages.merge(session.stream.stage_metrics());
        self.free.push(id.0);
        Ok(SessionReport {
            patient_id: session.patient_id,
            samples_pushed: session.stream.samples_pushed(),
            forwarded_beats: session.stream.forwarded_beats(),
            outcomes: session.outcomes,
        })
    }

    fn session(&self, id: SessionId) -> Result<&Mutex<Option<PatientStream<'fw>>>> {
        self.sessions
            .get(id.0)
            .ok_or_else(|| CoreError::Config(format!("unknown session #{}", id.0)))
    }

    fn closed(id: SessionId) -> CoreError {
        CoreError::Config(format!("session #{} is closed", id.0))
    }

    /// Ingests one batch of chunks — at most one chunk per session — pushing
    /// every chunk through its session in parallel.
    ///
    /// Within a batch the sessions are independent, so the sweep is
    /// deterministic; feeding the same session twice in one batch would make
    /// its sample order scheduling-dependent and is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session or a
    /// duplicated session within the batch.
    pub fn ingest(&self, feeds: &[(SessionId, &[f64])]) -> Result<()> {
        // Validation is O(feeds): each listed session is stamped with this
        // batch's number, so a second listing finds its own stamp.
        // Relaxed: the number only has to be unique, and the sessions it
        // stamps are guarded by their own mutexes.
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        for (id, _) in feeds {
            let mut slot = self.session(*id)?.lock().expect("session poisoned");
            let session = slot.as_mut().ok_or_else(|| Self::closed(*id))?;
            if std::mem::replace(&mut session.batch, batch) == batch {
                return Err(CoreError::Config(format!(
                    "session #{} fed twice in one batch",
                    id.0
                )));
            }
        }
        let started = std::time::Instant::now();
        self.par.map(feeds, |&(id, chunk)| {
            let mut slot = self.sessions[id.0].lock().expect("session poisoned");
            // Checked above; `ingest` takes `&self` and closing needs
            // `&mut self`, so the slot cannot vanish during the sweep.
            let session = slot.as_mut().expect("session closed mid-ingest");
            session.stream.push_chunk(chunk);
            session.drain();
        });
        self.ingest_micros
            .lock()
            .expect("ingest histogram poisoned")
            .record(started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Wall-clock microseconds per [`Self::ingest`] batch so far (cloned
    /// snapshot).
    pub fn ingest_latency(&self) -> Histogram {
        self.ingest_micros
            .lock()
            .expect("ingest histogram poisoned")
            .clone()
    }

    /// Per-stage latency histograms aggregated across the hub: every closed
    /// session's timings (merged at close) plus the current state of every
    /// live session. Histogram merge is deterministic, so the aggregate is
    /// independent of session scheduling and close order.
    pub fn stage_metrics(&self) -> StageMetrics {
        let mut merged = self.closed_stages.clone();
        for slot in &self.sessions {
            let slot = slot.lock().expect("session poisoned");
            if let Some(session) = slot.as_ref() {
                merged.merge(session.stream.stage_metrics());
            }
        }
        merged
    }

    /// Finishes every live session in parallel: borders are drained and all
    /// remaining beats emitted. Idempotent; closed slots are skipped.
    pub fn finish(&self) {
        let ids: Vec<usize> = (0..self.sessions.len()).collect();
        self.par.map(&ids, |&i| {
            let mut slot = self.sessions[i].lock().expect("session poisoned");
            if let Some(session) = slot.as_mut() {
                session.stream.finish();
                session.drain();
            }
        });
    }

    /// Migrates the hub — and every live session — to a retrained firmware
    /// image (model hot-swap), without dropping or duplicating a single
    /// outcome.
    ///
    /// The exclusive borrow *is* the swap barrier: `ingest` takes `&self`,
    /// so no parallel sweep can be in flight while the swap runs, and each
    /// session's mutex serialises the swap against any other reader. Beats
    /// are classified atomically inside the streaming firmware's `push`, so
    /// the swap always lands on a beat boundary — every beat is scored
    /// entirely by the old image or entirely by the new one, never a
    /// mixture. Emitted outcome histories are untouched; sessions keep
    /// their per-patient thresholds and filter state, so no re-calibration
    /// is needed. Sessions added after the swap use the new image.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Embedded`] when the new image's beat window
    /// differs from the deployed one (the streaming windowers are sized for
    /// it); the hub is left unchanged.
    pub fn swap_pipeline(&mut self, firmware: &'fw WbsnFirmware) -> Result<()> {
        if firmware.window != self.firmware.window {
            return Err(CoreError::Embedded(hbc_embedded::EmbeddedError::Dimension(
                format!(
                    "cannot hot-swap to a firmware with window {:?} (deployed: {:?})",
                    firmware.window, self.firmware.window
                ),
            )));
        }
        for slot in &self.sessions {
            let mut slot = slot.lock().expect("session poisoned");
            if let Some(session) = slot.as_mut() {
                session
                    .stream
                    .swap_firmware(firmware)
                    .map_err(CoreError::Embedded)?;
            }
        }
        self.firmware = firmware;
        Ok(())
    }

    /// The firmware image the hub currently deploys to new sessions.
    pub fn firmware(&self) -> &'fw WbsnFirmware {
        self.firmware
    }

    /// The patient identifier of a session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn patient_id(&self, id: SessionId) -> Result<u32> {
        let slot = self.session(id)?.lock().expect("session poisoned");
        Ok(slot.as_ref().ok_or_else(|| Self::closed(id))?.patient_id)
    }

    /// Copy of the outcomes a session has emitted so far.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn outcomes(&self, id: SessionId) -> Result<Vec<BeatOutcome>> {
        self.outcomes_since(id, 0)
    }

    /// Copy of the outcomes a session has emitted from index `from` onwards —
    /// the incremental form serving layers poll between ingest batches (each
    /// call clones only the tail the caller has not seen yet).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn outcomes_since(&self, id: SessionId, from: usize) -> Result<Vec<BeatOutcome>> {
        let slot = self.session(id)?.lock().expect("session poisoned");
        let session = slot.as_ref().ok_or_else(|| Self::closed(id))?;
        Ok(session.outcomes[from.min(session.outcomes.len())..].to_vec())
    }

    /// Whether any of a session's last `window` emitted outcomes carries an
    /// abnormal prediction — the **priority hook** serving layers use to
    /// protect ARR-flagged streams when shedding load: a session that
    /// recently produced an abnormal beat must keep flowing, a session whose
    /// recent stream is all-normal may have telemetry dropped first.
    /// `window = 0` always reports `false`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn recent_abnormal(&self, id: SessionId, window: usize) -> Result<bool> {
        let slot = self.session(id)?.lock().expect("session poisoned");
        let session = slot.as_ref().ok_or_else(|| Self::closed(id))?;
        let tail = &session.outcomes[session.outcomes.len().saturating_sub(window)..];
        Ok(tail.iter().any(|o| o.predicted.is_abnormal()))
    }

    /// Heap bytes a session's retained outcome history occupies — the
    /// hub-side share of a serving layer's per-session memory accounting
    /// (the layer adds its own buffers on top).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn session_memory_bytes(&self, id: SessionId) -> Result<usize> {
        let slot = self.session(id)?.lock().expect("session poisoned");
        let session = slot.as_ref().ok_or_else(|| Self::closed(id))?;
        Ok(session.outcomes.capacity() * std::mem::size_of::<BeatOutcome>())
    }

    /// Heap bytes retained across every live session's outcome history —
    /// [`Self::session_memory_bytes`] summed over the hub.
    pub fn memory_footprint(&self) -> usize {
        self.sessions
            .iter()
            .map(|s| {
                s.lock()
                    .expect("session poisoned")
                    .as_ref()
                    .map_or(0, |session| {
                        session.outcomes.capacity() * std::mem::size_of::<BeatOutcome>()
                    })
            })
            .sum()
    }

    /// Total beats emitted across all live sessions so far.
    pub fn total_beats(&self) -> usize {
        self.sessions
            .iter()
            .map(|s| {
                s.lock()
                    .expect("session poisoned")
                    .as_ref()
                    .map_or(0, |session| session.outcomes.len())
            })
            .sum()
    }

    /// Labels one session's emitted beats against reference annotations
    /// (two-pointer position matching within `tolerance` samples; unmatched
    /// beats are ignored, as in the batch firmware report) and returns its
    /// figures of merit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn session_report(
        &self,
        id: SessionId,
        annotations: &[Annotation],
        tolerance: usize,
    ) -> Result<EvaluationReport> {
        let slot = self.session(id)?.lock().expect("session poisoned");
        let session = slot.as_ref().ok_or_else(|| Self::closed(id))?;
        Ok(report_for(&session.outcomes, annotations, tolerance))
    }

    /// Fleet-wide report: every listed session is labelled in parallel and
    /// the per-session reports are merged **in the order given** via
    /// [`EvaluationReport::merge`] — bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn merged_report(
        &self,
        truths: &[(SessionId, &[Annotation])],
        tolerance: usize,
    ) -> Result<EvaluationReport> {
        for (id, _) in truths {
            if self
                .session(*id)?
                .lock()
                .expect("session poisoned")
                .is_none()
            {
                return Err(Self::closed(*id));
            }
        }
        let reports = self.par.map(truths, |&(id, annotations)| {
            let slot = self.sessions[id.0].lock().expect("session poisoned");
            let session = slot.as_ref().expect("session closed mid-report");
            report_for(&session.outcomes, annotations, tolerance)
        });
        let mut merged = EvaluationReport::new();
        for report in &reports {
            merged.merge(report);
        }
        Ok(merged)
    }
}

/// Labels outcomes by matching their peak positions against annotations and
/// accumulates the confusion counts.
fn report_for(
    outcomes: &[BeatOutcome],
    annotations: &[Annotation],
    tolerance: usize,
) -> EvaluationReport {
    let peaks: Vec<usize> = outcomes.iter().map(|o| o.peak).collect();
    let matching = match_peaks(&peaks, annotations, tolerance);
    let mut report = EvaluationReport::new();
    for (outcome, matched) in outcomes.iter().zip(&matching.matched_annotation) {
        if let Some(ai) = matched {
            report.record(annotations[*ai].class, outcome.predicted);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::pipeline::TrainedSystem;
    use hbc_ecg::record::{EcgRecord, Lead};
    use hbc_ecg::synthetic::SyntheticEcg;
    use hbc_embedded::int_classifier::AlphaQ16;
    use hbc_rp::PackedProjection;
    use std::sync::OnceLock;

    fn system() -> &'static TrainedSystem {
        static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
        SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
    }

    fn firmware() -> WbsnFirmware {
        let system = system();
        WbsnFirmware::new(
            PackedProjection::from_matrix(&system.pc_downsampled.projection),
            system.wbsn.classifier.clone(),
            AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("alpha in range"),
            system.config.downsample,
            hbc_ecg::beat::BeatWindow::PAPER,
        )
        .expect("firmware dimensions")
    }

    fn patient_record(seed: u64, beats: usize) -> EcgRecord {
        let mut gen = SyntheticEcg::with_seed(seed);
        let rhythm = gen.rhythm(beats, 0.1, 0.1);
        gen.record(seed as u32, &rhythm, 1).expect("record")
    }

    #[test]
    fn hub_matches_per_patient_batch_processing_for_any_thread_count() {
        let fw = firmware();
        let records: Vec<EcgRecord> = (0..3).map(|i| patient_record(100 + i, 40)).collect();
        let tolerance = (0.06 * records[0].fs) as usize;

        // Reference: the batch firmware on each record, labelled the same
        // way the hub labels streams.
        let mut reference = EvaluationReport::new();
        for record in &records {
            let report = fw.process_record(record).expect("batch");
            let outcomes: Vec<BeatOutcome> = report.beats.clone();
            reference.merge(&report_for(&outcomes, &record.annotations, tolerance));
        }

        for threads in [NonZeroUsize::new(1), NonZeroUsize::new(4)] {
            let mut hub = StreamHub::with_threads(&fw, records[0].fs, threads);
            let ids: Vec<SessionId> = records
                .iter()
                .map(|r| {
                    let thresholds = hub
                        .calibrate_thresholds(r.lead(Lead(0)).expect("lead"))
                        .expect("calibrate");
                    hub.add_patient(r.id, thresholds)
                })
                .collect();
            // Stream every patient concurrently, one-second chunks.
            let chunk = records[0].fs as usize;
            let longest = records.iter().map(EcgRecord::len).max().expect("records");
            let mut offset = 0;
            while offset < longest {
                let feeds: Vec<(SessionId, &[f64])> = records
                    .iter()
                    .zip(&ids)
                    .filter_map(|(r, &id)| {
                        let lead = r.lead(Lead(0)).expect("lead");
                        (offset < lead.len())
                            .then(|| (id, &lead[offset..(offset + chunk).min(lead.len())]))
                    })
                    .collect();
                hub.ingest(&feeds).expect("ingest");
                offset += chunk;
            }
            hub.finish();
            hub.finish(); // idempotent

            let truths: Vec<(SessionId, &[Annotation])> = records
                .iter()
                .zip(&ids)
                .map(|(r, &id)| (id, r.annotations.as_slice()))
                .collect();
            let merged = hub.merged_report(&truths, tolerance).expect("report");
            assert_eq!(merged, reference, "threads = {threads:?}");

            // Per-session reports merge (in session order) to the same
            // fleet-wide report.
            let mut manual = EvaluationReport::new();
            for &(id, anns) in &truths {
                manual.merge(&hub.session_report(id, anns, tolerance).expect("session"));
            }
            assert_eq!(manual, merged);
            assert_eq!(hub.num_sessions(), records.len());
            assert_eq!(hub.total_beats(), merged.total());
            assert_eq!(hub.patient_id(ids[0]).expect("known"), records[0].id);
            assert!(!hub.outcomes(ids[0]).expect("known").is_empty());
        }
    }

    #[test]
    fn close_session_returns_the_full_history_and_frees_the_slot() {
        let fw = firmware();
        let record = patient_record(300, 40);
        let tolerance = (0.06 * record.fs) as usize;
        let mut hub = StreamHub::with_threads(&fw, record.fs, NonZeroUsize::new(2));
        let lead = record.lead(Lead(0)).expect("lead");
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let keep = hub.add_patient(1, thresholds.clone());
        let id = hub.add_patient(record.id, thresholds.clone());
        assert_eq!(hub.active_sessions(), 2);

        // Stream in chunks, draining incrementally like the gateway does.
        let mut seen = 0usize;
        for chunk in lead.chunks(997) {
            hub.ingest(&[(id, chunk)]).expect("ingest");
            seen += hub.outcomes_since(id, seen).expect("tail").len();
        }
        let report = hub.close_session(id).expect("close");
        assert_eq!(report.patient_id, record.id);
        assert_eq!(report.samples_pushed, lead.len());
        assert!(report.outcomes.len() >= seen);
        assert_eq!(
            report.forwarded_beats,
            report.outcomes.iter().filter(|o| o.delineated).count()
        );

        // The closed session's history equals the batch-labelled reference.
        let batch = fw.process_record(&record).expect("batch");
        let reference = report_for(&batch.beats, &record.annotations, tolerance);
        assert_eq!(report.labelled(&record.annotations, tolerance), reference);

        // The slot is freed and every accessor now rejects the stale handle.
        assert_eq!(hub.active_sessions(), 1);
        assert_eq!(hub.num_sessions(), 2);
        assert!(hub.ingest(&[(id, &lead[..8])]).is_err());
        assert!(hub.outcomes(id).is_err());
        assert!(hub.outcomes_since(id, 0).is_err());
        assert!(hub.patient_id(id).is_err());
        assert!(hub
            .session_report(id, &record.annotations, tolerance)
            .is_err());
        assert!(hub
            .merged_report(&[(id, &record.annotations)], tolerance)
            .is_err());
        assert!(hub.close_session(id).is_err(), "double close must error");
        hub.finish(); // must skip the hole without panicking

        // Index reuse: the next patient takes the freed slot.
        let reused = hub.add_patient(9, thresholds);
        assert_eq!(reused.index(), id.index());
        assert_eq!(hub.active_sessions(), 2);
        assert_eq!(hub.patient_id(reused).expect("live"), 9);
        assert_eq!(hub.patient_id(keep).expect("live"), 1);
        assert!(hub.outcomes(reused).expect("live").is_empty());
    }

    #[test]
    fn hot_swap_migrates_live_sessions_without_dropping_or_duplicating() {
        let old_fw = firmware();
        // A genuinely retrained image: same geometry, different projection
        // and classifier (fresh training seed), hence a different decision
        // boundary on part of the beats.
        let mut retrain_cfg = ExperimentConfig::quick();
        retrain_cfg.seed = 7777;
        let retrained = TrainedSystem::train(&retrain_cfg).expect("training");
        let new_fw = WbsnFirmware::new(
            PackedProjection::from_matrix(&retrained.pc_downsampled.projection),
            retrained.wbsn.classifier.clone(),
            AlphaQ16::from_f64(retrained.pc_downsampled.alpha_train).expect("alpha in range"),
            retrained.config.downsample,
            hbc_ecg::beat::BeatWindow::PAPER,
        )
        .expect("firmware dimensions");
        let record = patient_record(700, 60);
        let lead = record.lead(Lead(0)).expect("lead");
        let chunk = record.fs as usize;

        // References: the whole stream scored by the old image alone and by
        // the new image alone. Peaks are detector-driven (classifier
        // independent), so outcome i of both references describes the same
        // beat and differs at most in its predicted class.
        let reference = |fw: &WbsnFirmware| -> Vec<BeatOutcome> {
            let mut hub = StreamHub::with_threads(fw, record.fs, NonZeroUsize::new(2));
            let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
            let id = hub.add_patient(record.id, thresholds);
            for c in lead.chunks(chunk) {
                hub.ingest(&[(id, c)]).expect("ingest");
            }
            hub.finish();
            hub.outcomes(id).expect("live")
        };
        let ref_old = reference(&old_fw);
        let ref_new = reference(&new_fw);
        assert_eq!(ref_old.len(), ref_new.len());
        assert!(
            ref_old != ref_new,
            "the retrained image must actually classify differently"
        );

        // Live migration: stream half, swap, stream the rest.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let id = hub.add_patient(record.id, thresholds.clone());
        let chunks: Vec<&[f64]> = lead.chunks(chunk).collect();
        let half = chunks.len() / 2;
        for c in &chunks[..half] {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        let before_swap = hub.outcomes(id).expect("live").len();
        assert!(before_swap > 0, "the prefix must have emitted beats");
        hub.swap_pipeline(&new_fw).expect("compatible image");
        assert!(std::ptr::eq(hub.firmware(), &new_fw));
        for c in &chunks[half..] {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        let migrated = hub.outcomes(id).expect("live");

        // Zero dropped, zero duplicated: same beats as both references, with
        // a single switch point at the swap.
        assert_eq!(migrated.len(), ref_old.len());
        assert_eq!(&migrated[..before_swap], &ref_old[..before_swap]);
        assert_eq!(&migrated[before_swap..], &ref_new[before_swap..]);

        // Swapping to an identical image is a no-op on the outcome stream.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        let id = hub.add_patient(record.id, thresholds.clone());
        for (i, c) in chunks.iter().enumerate() {
            if i == half {
                hub.swap_pipeline(&old_fw).expect("identity swap");
            }
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        assert_eq!(hub.outcomes(id).expect("live"), ref_old);

        // Incompatible geometry is rejected and leaves the hub untouched.
        let mut bad = old_fw.clone();
        bad.window = hbc_ecg::beat::BeatWindow::new(bad.window.pre + 4, bad.window.post);
        assert!(hub.swap_pipeline(&bad).is_err());
        assert!(std::ptr::eq(hub.firmware(), &old_fw));

        // Sessions added after a swap use the new image: stream the same
        // record through a post-swap session and match the new reference.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        hub.swap_pipeline(&new_fw).expect("compatible image");
        let id = hub.add_patient(record.id, thresholds);
        for c in &chunks {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        assert_eq!(hub.outcomes(id).expect("live"), ref_new);
    }

    #[test]
    fn recent_abnormal_and_memory_accounting_track_the_outcome_stream() {
        let fw = firmware();
        let record = patient_record(410, 40);
        let lead = record.lead(Lead(0)).expect("lead");
        let mut hub = StreamHub::with_threads(&fw, record.fs, NonZeroUsize::new(2));
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let id = hub.add_patient(record.id, thresholds);

        // A fresh session has no outcomes: not abnormal, no history bytes.
        assert!(!hub.recent_abnormal(id, 64).expect("live"));
        assert_eq!(hub.session_memory_bytes(id).expect("live"), 0);

        hub.ingest(&[(id, lead)]).expect("ingest");
        hub.finish();
        let outcomes = hub.outcomes(id).expect("live");
        assert!(!outcomes.is_empty());
        let any_abnormal = outcomes.iter().any(|o| o.predicted.is_abnormal());

        // The full-history window agrees with a direct scan; a zero window
        // never reports abnormal; a window of 1 sees exactly the last beat.
        assert_eq!(
            hub.recent_abnormal(id, outcomes.len()).expect("live"),
            any_abnormal
        );
        assert!(!hub.recent_abnormal(id, 0).expect("live"));
        assert_eq!(
            hub.recent_abnormal(id, 1).expect("live"),
            outcomes.last().expect("non-empty").predicted.is_abnormal()
        );

        // Memory accounting covers at least the retained outcomes and the
        // fleet total includes this session.
        let bytes = hub.session_memory_bytes(id).expect("live");
        assert!(bytes >= outcomes.len() * std::mem::size_of::<BeatOutcome>());
        assert!(hub.memory_footprint() >= bytes);

        // Closed sessions drop out of both accessors and the footprint.
        hub.close_session(id).expect("close");
        assert!(hub.recent_abnormal(id, 8).is_err());
        assert!(hub.session_memory_bytes(id).is_err());
        assert_eq!(hub.memory_footprint(), 0);
    }

    #[test]
    fn hub_rejects_bad_batches() {
        let fw = firmware();
        let mut hub = StreamHub::new(&fw, 360.0);
        let thresholds = PeakThresholds {
            first_scale: 1.0,
            cross_scale: vec![1.0; 3],
        };
        let id = hub.add_patient(7, thresholds);
        let chunk = [0.0f64; 16];
        // Unknown session.
        assert!(hub.ingest(&[(SessionId(9), &chunk)]).is_err());
        // Duplicate session in one batch.
        assert!(hub.ingest(&[(id, &chunk), (id, &chunk)]).is_err());
        // Valid batch.
        hub.ingest(&[(id, &chunk)]).expect("ok");
        assert!(hub.outcomes(SessionId(3)).is_err());
        assert!(hub.session_report(SessionId(3), &[], 10).is_err());
        assert!(hub.patient_id(SessionId(3)).is_err());
    }
}
