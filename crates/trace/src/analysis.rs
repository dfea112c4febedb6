//! Analysis of *unlabelled* power traces: automatic phase segmentation,
//! downsampling and windowed energy queries.
//!
//! A real power analyzer records one long waveform; reconstructing the
//! `E_E`/`E_S`/`E_M` decomposition requires detecting the phase boundaries
//! from the power levels themselves. [`detect_phases`] does that with a
//! log-domain level detector, so a trace produced by the platform simulator
//! can be decomposed *without* using its labels — and the result
//! cross-checked against them (see the integration tests).

use solarml_units::{Energy, Frequency, Power, Seconds};

use crate::trace::PowerTrace;

/// A detected constant-power phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Index of the first sample.
    pub start_index: usize,
    /// One past the last sample.
    pub end_index: usize,
    /// Start time.
    pub start: Seconds,
    /// Phase duration.
    pub duration: Seconds,
    /// Mean power over the phase.
    pub mean_power: Power,
    /// Energy of the phase.
    pub energy: Energy,
}

/// Detects phases by splitting wherever the log-power level moves by more
/// than `threshold_db` decibels between consecutive smoothed samples.
/// Phases shorter than `min_samples` are merged into their neighbours
/// (transition glitches).
///
/// Returns phases in time order, covering the whole trace.
///
/// # Panics
///
/// Panics if the trace is empty or `min_samples` is zero.
pub fn detect_phases(trace: &PowerTrace, threshold_db: f64, min_samples: usize) -> Vec<Phase> {
    assert!(!trace.is_empty(), "cannot segment an empty trace");
    assert!(min_samples > 0, "min_samples must be positive");
    let floor = 1e-9; // 1 nW floor keeps the log finite for off phases
    let logs: Vec<f64> = trace
        .powers()
        .iter()
        .map(|p| 10.0 * (p.as_watts().max(floor)).log10())
        .collect();

    // Boundary wherever the level steps by more than the threshold.
    let mut boundaries = vec![0usize];
    for i in 1..logs.len() {
        if (logs[i] - logs[i - 1]).abs() > threshold_db {
            boundaries.push(i);
        }
    }
    boundaries.push(logs.len());
    boundaries.dedup();

    // Build raw segments, then merge the short ones forward.
    let mut segments: Vec<(usize, usize)> = boundaries
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|(a, b)| b > a)
        .collect();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for seg in segments.drain(..) {
        match merged.last_mut() {
            Some(last) if seg.1 - seg.0 < min_samples => last.1 = seg.1,
            Some(last) if last.1 - last.0 < min_samples => last.1 = seg.1,
            _ => merged.push(seg),
        }
    }
    // A leading short segment may remain; absorb it into the next one.
    if merged.len() >= 2 && merged[0].1 - merged[0].0 < min_samples {
        merged[1].0 = merged[0].0;
        merged.remove(0);
    }

    let period = trace.sample_period();
    merged
        .into_iter()
        .map(|(a, b)| {
            let n = b - a;
            let energy: Energy = trace.powers()[a..b].iter().map(|&p| p * period).sum();
            let duration = period * n as f64;
            Phase {
                start_index: a,
                end_index: b,
                start: period * a as f64,
                duration,
                mean_power: energy / duration,
                energy,
            }
        })
        .collect()
}

/// Downsamples a trace by an integer factor, averaging each bucket (what a
/// slower power analyzer would have recorded).
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn downsample(trace: &PowerTrace, factor: usize) -> PowerTrace {
    assert!(factor > 0, "factor must be positive");
    let new_rate = Frequency::new(1.0 / (trace.sample_period().as_seconds() * factor as f64));
    let mut out = PowerTrace::with_sample_rate(new_rate);
    for chunk in trace.powers().chunks(factor) {
        let mean = chunk.iter().map(|p| p.as_watts()).sum::<f64>() / chunk.len() as f64;
        out.push(Power::new(mean));
    }
    out
}

/// Energy of the trace between two timestamps (clamped to the recording).
pub fn energy_between(trace: &PowerTrace, from: Seconds, to: Seconds) -> Energy {
    let period = trace.sample_period().as_seconds();
    let a = ((from.as_seconds() / period).floor().max(0.0) as usize).min(trace.len());
    let b = ((to.as_seconds() / period).ceil().max(0.0) as usize).min(trace.len());
    if b <= a {
        return Energy::ZERO;
    }
    trace.powers()[a..b]
        .iter()
        .map(|&p| p * trace.sample_period())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> PowerTrace {
        // 1 s at 10 µW, 0.5 s at 5 mW, 1 s at 100 µW @ 1 kHz.
        let mut t = PowerTrace::with_sample_rate(Frequency::new(1000.0));
        for _ in 0..1000 {
            t.push(Power::from_micro_watts(10.0));
        }
        for _ in 0..500 {
            t.push(Power::from_milli_watts(5.0));
        }
        for _ in 0..1000 {
            t.push(Power::from_micro_watts(100.0));
        }
        t
    }

    #[test]
    fn detects_three_phases() {
        let trace = staircase();
        let phases = detect_phases(&trace, 3.0, 10);
        assert_eq!(phases.len(), 3, "phases: {phases:?}");
        assert!((phases[0].mean_power.as_micro_watts() - 10.0).abs() < 0.5);
        assert!((phases[1].mean_power.as_milli_watts() - 5.0).abs() < 0.1);
        assert!((phases[2].mean_power.as_micro_watts() - 100.0).abs() < 5.0);
    }

    #[test]
    fn phases_cover_the_whole_trace() {
        let trace = staircase();
        let phases = detect_phases(&trace, 3.0, 10);
        assert_eq!(phases[0].start_index, 0);
        assert_eq!(phases.last().expect("non-empty").end_index, trace.len());
        for w in phases.windows(2) {
            assert_eq!(w[0].end_index, w[1].start_index);
        }
        let total: f64 = phases.iter().map(|p| p.energy.as_joules()).sum();
        assert!((total - trace.total_energy().as_joules()).abs() < 1e-12);
    }

    #[test]
    fn constant_trace_is_one_phase() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(100.0));
        for _ in 0..500 {
            t.push(Power::from_milli_watts(1.0));
        }
        let phases = detect_phases(&t, 3.0, 5);
        assert_eq!(phases.len(), 1);
    }

    #[test]
    fn glitches_are_merged() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(1000.0));
        for _ in 0..500 {
            t.push(Power::from_micro_watts(10.0));
        }
        // 3-sample spike — shorter than min_samples.
        for _ in 0..3 {
            t.push(Power::from_milli_watts(8.0));
        }
        for _ in 0..500 {
            t.push(Power::from_micro_watts(10.0));
        }
        let phases = detect_phases(&t, 3.0, 10);
        assert!(phases.len() <= 2, "spike must not create its own phase");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let t = PowerTrace::with_sample_rate(Frequency::new(100.0));
        let _ = detect_phases(&t, 3.0, 5);
    }

    #[test]
    fn downsample_preserves_energy() {
        let trace = staircase();
        let down = downsample(&trace, 10);
        assert_eq!(down.len(), 250);
        let rel = (down.total_energy().as_joules() - trace.total_energy().as_joules()).abs()
            / trace.total_energy().as_joules();
        assert!(rel < 1e-9, "bucket averaging preserves energy");
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let trace = staircase();
        let same = downsample(&trace, 1);
        assert_eq!(same.len(), trace.len());
        assert_eq!(same.total_energy(), trace.total_energy());
    }

    #[test]
    fn energy_between_windows() {
        let trace = staircase();
        // The 5 mW burst occupies [1.0, 1.5) s → 2.5 mJ.
        let e = energy_between(&trace, Seconds::new(1.0), Seconds::new(1.5));
        assert!((e.as_milli_joules() - 2.5).abs() < 0.05, "got {e}");
        // Degenerate and out-of-range windows.
        assert_eq!(
            energy_between(&trace, Seconds::new(2.0), Seconds::new(1.0)),
            Energy::ZERO
        );
        let all = energy_between(&trace, Seconds::ZERO, Seconds::new(100.0));
        assert!((all.as_joules() - trace.total_energy().as_joules()).abs() < 1e-12);
    }
}
