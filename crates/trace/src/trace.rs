//! The [`PowerTrace`] recorder.

use solarml_units::{Energy, Frequency, Power, Ratio, Seconds};

/// One timestamped power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Time since the start of the recording.
    pub at: Seconds,
    /// Instantaneous power at `at`.
    pub power: Power,
}

/// A labelled, contiguous span of samples within a [`PowerTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Human-readable label, e.g. `"deep-sleep"` or `"inference"`.
    pub label: String,
    /// Index of the first sample belonging to this segment.
    pub start_index: usize,
    /// One past the index of the last sample (exclusive).
    pub end_index: usize,
}

/// Aggregated description of a segment: duration, energy, average power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSummary {
    /// Wall-clock duration covered by the segment.
    pub duration: Seconds,
    /// Energy integrated over the segment.
    pub energy: Energy,
    /// Mean power over the segment.
    pub average_power: Power,
    /// Peak power observed in the segment.
    pub peak_power: Power,
}

/// A fixed-sample-rate power recording with labelled segments.
///
/// Samples are pushed in order; each push advances time by one sample period.
/// Segments partition the trace: starting a new segment closes the previous
/// one. Energy is integrated with the rectangle rule (each sample holds for
/// one period), which matches how a real sampling power analyzer reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    sample_period: Seconds,
    powers: Vec<Power>,
    segments: Vec<Segment>,
}

impl PowerTrace {
    /// Creates a trace sampled at `rate` samples per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn with_sample_rate(rate: Frequency) -> Self {
        let rate_hz = rate.as_hertz();
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "sample rate must be positive and finite, got {rate_hz} Hz"
        );
        Self {
            sample_period: rate.period(),
            powers: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// The period between consecutive samples.
    pub fn sample_period(&self) -> Seconds {
        self.sample_period
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Total recorded duration.
    pub fn duration(&self) -> Seconds {
        self.sample_period * self.powers.len() as f64
    }

    /// Appends one power sample, advancing time by one sample period.
    pub fn push(&mut self, power: Power) {
        self.powers.push(power);
        if let Some(seg) = self.segments.last_mut() {
            seg.end_index = self.powers.len();
        }
    }

    /// Opens a new labelled segment starting at the next pushed sample.
    ///
    /// The previous segment (if any) is closed at the current position.
    /// Consecutive `begin_segment` calls with no samples in between produce an
    /// empty segment, which is retained (it summarizes to zero energy).
    pub fn begin_segment(&mut self, label: impl Into<String>) {
        let here = self.powers.len();
        self.segments.push(Segment {
            label: label.into(),
            start_index: here,
            end_index: here,
        });
    }

    /// All segments in recording order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterates over `(timestamp, power)` samples.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let period = self.sample_period;
        self.powers
            .iter()
            .enumerate()
            .map(move |(i, &power)| Sample {
                at: period * i as f64,
                power,
            })
    }

    /// The raw power samples.
    pub fn powers(&self) -> &[Power] {
        &self.powers
    }

    /// Integrated energy of the whole trace.
    pub fn total_energy(&self) -> Energy {
        self.energy_of_range(0, self.powers.len())
    }

    /// Mean power over the whole trace, or zero for an empty trace.
    pub fn average_power(&self) -> Power {
        if self.powers.is_empty() {
            return Power::ZERO;
        }
        let total: f64 = self.powers.iter().map(|p| p.as_watts()).sum();
        Power::new(total / self.powers.len() as f64)
    }

    /// Peak power over the whole trace, or zero for an empty trace.
    pub fn peak_power(&self) -> Power {
        self.powers
            .iter()
            .copied()
            .fold(Power::ZERO, |acc, p| acc.max(p))
    }

    /// Integrated energy of the *first* segment with the given label.
    ///
    /// Returns `None` if no segment carries that label.
    pub fn segment_energy(&self, label: &str) -> Option<Energy> {
        self.summarize_segment(label).map(|s| s.energy)
    }

    /// Sums the energy of *all* segments with the given label.
    ///
    /// Useful when a phase recurs, e.g. repeated `"standby"` windows.
    pub fn labelled_energy(&self, label: &str) -> Energy {
        self.segments
            .iter()
            .filter(|s| s.label == label)
            .map(|s| self.energy_of_range(s.start_index, s.end_index))
            .sum()
    }

    /// Summarizes the *first* segment with the given label.
    pub fn summarize_segment(&self, label: &str) -> Option<SegmentSummary> {
        let seg = self.segments.iter().find(|s| s.label == label)?;
        Some(self.summarize(seg))
    }

    /// Summaries of all segments in order, paired with their labels.
    pub fn segment_summaries(&self) -> Vec<(String, SegmentSummary)> {
        self.segments
            .iter()
            .map(|s| (s.label.clone(), self.summarize(s)))
            .collect()
    }

    /// Fraction of total energy consumed by all segments with `label`.
    ///
    /// Returns zero for an empty trace.
    pub fn energy_fraction(&self, label: &str) -> Ratio {
        let total = self.total_energy();
        if total.as_joules() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.labelled_energy(label) / total)
    }

    /// Renders the trace as CSV with `time_s,power_w,segment` columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,power_w,segment\n");
        let mut seg_iter = self.segments.iter().peekable();
        let mut current: Option<&Segment> = None;
        for (i, sample) in self.iter().enumerate() {
            while let Some(next) = seg_iter.peek() {
                if next.start_index <= i {
                    current = seg_iter.next();
                } else {
                    break;
                }
            }
            let label = current
                .filter(|s| i < s.end_index)
                .map(|s| s.label.as_str())
                .unwrap_or("");
            out.push_str(&format!(
                "{:.9},{:.9},{}\n",
                sample.at.as_seconds(),
                sample.power.as_watts(),
                label
            ));
        }
        out
    }

    /// Parses a trace from the CSV format produced by [`PowerTrace::to_csv`]
    /// (`time_s,power_w,segment`). Sample timing is taken from `rate`;
    /// the time column is ignored beyond ordering. Consecutive rows with the
    /// same non-empty segment label are grouped into segments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_csv(csv: &str, rate: Frequency) -> Result<Self, String> {
        let mut lines = csv.lines();
        match lines.next() {
            Some(header) if header.trim() == "time_s,power_w,segment" => {}
            other => return Err(format!("unexpected header: {other:?}")),
        }
        let mut trace = PowerTrace::with_sample_rate(rate);
        let mut current_label: Option<String> = None;
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            let _time = parts
                .next()
                .ok_or_else(|| format!("line {}: missing time", i + 2))?;
            let power: f64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing power", i + 2))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad power ({e})", i + 2))?;
            let label = parts.next().unwrap_or("").trim().to_string();
            let label_opt = if label.is_empty() { None } else { Some(label) };
            if current_label != label_opt {
                // A change of label opens a new segment; unlabelled spans
                // following a labelled one get an anonymous segment so they
                // are not attributed to the previous label.
                if label_opt.is_some() || current_label.is_some() {
                    trace.begin_segment(label_opt.clone().unwrap_or_default());
                }
                current_label = label_opt;
            }
            trace.push(Power::new(power));
        }
        Ok(trace)
    }

    fn summarize(&self, seg: &Segment) -> SegmentSummary {
        let n = seg.end_index.saturating_sub(seg.start_index);
        let duration = self.sample_period * n as f64;
        let energy = self.energy_of_range(seg.start_index, seg.end_index);
        let average_power = if n == 0 {
            Power::ZERO
        } else {
            energy / duration
        };
        let peak_power = self.powers[seg.start_index..seg.end_index]
            .iter()
            .copied()
            .fold(Power::ZERO, |acc, p| acc.max(p));
        SegmentSummary {
            duration,
            energy,
            average_power,
            peak_power,
        }
    }

    fn energy_of_range(&self, start: usize, end: usize) -> Energy {
        let dt = self.sample_period;
        self.powers[start..end].iter().map(|&p| p * dt).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn trace_with(rate: f64, powers: &[f64]) -> PowerTrace {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(rate));
        for &p in powers {
            t.push(Power::new(p));
        }
        t
    }

    #[test]
    fn energy_is_power_times_time() {
        let t = trace_with(10.0, &[1.0; 20]); // 1 W for 2 s
        assert!((t.total_energy().as_joules() - 2.0).abs() < 1e-12);
        assert!((t.duration().as_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = PowerTrace::with_sample_rate(Frequency::new(100.0));
        assert!(t.is_empty());
        assert_eq!(t.total_energy(), Energy::ZERO);
        assert_eq!(t.average_power(), Power::ZERO);
        assert_eq!(t.peak_power(), Power::ZERO);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_rate_panics() {
        let _ = PowerTrace::with_sample_rate(Frequency::new(0.0));
    }

    #[test]
    fn segments_partition_energy() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(100.0));
        t.begin_segment("a");
        for _ in 0..50 {
            t.push(Power::from_milli_watts(10.0));
        }
        t.begin_segment("b");
        for _ in 0..25 {
            t.push(Power::from_milli_watts(40.0));
        }
        let ea = t.segment_energy("a").expect("a exists");
        let eb = t.segment_energy("b").expect("b exists");
        assert!((ea.as_milli_joules() - 5.0).abs() < 1e-9);
        assert!((eb.as_milli_joules() - 10.0).abs() < 1e-9);
        let total = t.total_energy();
        assert!(((ea + eb) / total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labelled_energy_sums_repeats() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(10.0));
        for _ in 0..3 {
            t.begin_segment("standby");
            t.push(Power::new(1.0));
            t.begin_segment("active");
            t.push(Power::new(2.0));
        }
        assert!((t.labelled_energy("standby").as_joules() - 0.3).abs() < 1e-12);
        assert!((t.labelled_energy("active").as_joules() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn missing_segment_is_none() {
        let t = trace_with(10.0, &[1.0]);
        assert!(t.segment_energy("nope").is_none());
    }

    #[test]
    fn energy_fraction_sums_to_one_over_labels() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(10.0));
        t.begin_segment("x");
        t.push(Power::new(3.0));
        t.begin_segment("y");
        t.push(Power::new(1.0));
        let fx = t.energy_fraction("x").get();
        let fy = t.energy_fraction("y").get();
        assert!((fx - 0.75).abs() < 1e-12);
        assert!((fx + fy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_report_duration_and_peak() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(1000.0));
        t.begin_segment("burst");
        t.push(Power::from_milli_watts(1.0));
        t.push(Power::from_milli_watts(9.0));
        let s = t.summarize_segment("burst").expect("burst exists");
        assert!((s.duration.as_millis() - 2.0).abs() < 1e-9);
        assert!((s.peak_power.as_milli_watts() - 9.0).abs() < 1e-9);
        assert!((s.average_power.as_milli_watts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(10.0));
        t.begin_segment("s");
        t.push(Power::new(0.5));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,power_w,segment"));
        let row = lines.next().expect("one data row");
        assert!(row.ends_with(",s"), "row should carry segment label: {row}");
    }

    #[test]
    fn csv_roundtrip_preserves_powers_and_labels() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(100.0));
        t.push(Power::new(0.25)); // unlabelled lead-in
        t.begin_segment("sleep");
        for _ in 0..5 {
            t.push(Power::from_micro_watts(30.0));
        }
        t.begin_segment("active");
        for _ in 0..3 {
            t.push(Power::from_milli_watts(20.0));
        }
        let csv = t.to_csv();
        let back = PowerTrace::from_csv(&csv, Frequency::new(100.0)).expect("well-formed");
        assert_eq!(back.len(), t.len());
        for (a, b) in t.powers().iter().zip(back.powers()) {
            assert!((a.as_watts() - b.as_watts()).abs() < 1e-12);
        }
        for label in ["sleep", "active"] {
            let (ea, eb) = (t.labelled_energy(label), back.labelled_energy(label));
            assert!((ea.as_joules() - eb.as_joules()).abs() < 1e-12, "{label}");
        }
    }

    #[test]
    fn from_csv_rejects_malformed_input() {
        assert!(PowerTrace::from_csv("bogus\n", Frequency::new(10.0)).is_err());
        let bad_power = "time_s,power_w,segment\n0.0,notanumber,x\n";
        let err = PowerTrace::from_csv(bad_power, Frequency::new(10.0)).expect_err("bad power");
        assert!(err.contains("line 2"));
    }

    #[test]
    fn from_csv_separates_trailing_unlabelled_rows() {
        let csv = "time_s,power_w,segment\n0.0,1.0,work\n0.1,1.0,work\n0.2,5.0,\n";
        let t = PowerTrace::from_csv(csv, Frequency::new(10.0)).expect("well-formed");
        // The 5 W row must not be billed to "work".
        assert!((t.labelled_energy("work").as_joules() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_segment_summarizes_to_zero() {
        let mut t = PowerTrace::with_sample_rate(Frequency::new(10.0));
        t.begin_segment("empty");
        t.begin_segment("full");
        t.push(Power::new(1.0));
        let s = t.summarize_segment("empty").expect("empty exists");
        assert_eq!(s.energy, Energy::ZERO);
        assert_eq!(s.average_power, Power::ZERO);
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_segments(
            powers in proptest::collection::vec(0.0f64..10.0, 1..200),
            cut in 0usize..200,
        ) {
            let cut = cut.min(powers.len());
            let mut t = PowerTrace::with_sample_rate(Frequency::new(50.0));
            t.begin_segment("head");
            for &p in &powers[..cut] {
                t.push(Power::new(p));
            }
            t.begin_segment("tail");
            for &p in &powers[cut..] {
                t.push(Power::new(p));
            }
            let sum = t.labelled_energy("head") + t.labelled_energy("tail");
            let total = t.total_energy();
            prop_assert!((sum.as_joules() - total.as_joules()).abs() <= 1e-9 * (1.0 + total.as_joules()));
        }

        #[test]
        fn average_power_bounded_by_peak(
            powers in proptest::collection::vec(0.0f64..10.0, 1..100),
        ) {
            let t = trace_with(100.0, &powers);
            prop_assert!(t.average_power() <= t.peak_power() + Power::new(1e-12));
        }
    }
}
