//! Bounded time-series ring buffer for engine self-profiling.
//!
//! Profiling a long run cannot afford an unbounded sample log: a Full-scale
//! simulation processes tens of millions of events, and a queue-depth sample
//! per event would dwarf the simulation state itself. [`WindowedSeries`]
//! keeps the most recent `capacity` samples in a fixed ring and counts how
//! many older samples were evicted, so consumers can both plot the recent
//! window and know exactly how much history they are missing.

use serde::Serialize;

/// One `(time, value)` sample in a [`WindowedSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sample {
    /// Sample timestamp in seconds (simulation or wall clock — caller's
    /// choice, but one series must not mix the two).
    pub at_secs: f64,
    /// Sampled value.
    pub value: f64,
}

/// A bounded ring buffer of `(time, value)` samples.
///
/// Pushing beyond `capacity` evicts the oldest sample and increments
/// [`WindowedSeries::evicted`]. Summary statistics (`min`/`max`/`mean`)
/// cover only the samples currently in the window.
#[derive(Debug, Clone, Serialize)]
pub struct WindowedSeries {
    capacity: usize,
    /// Ring storage; logically ordered oldest→newest starting at `head`.
    samples: Vec<Sample>,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
    /// Samples evicted because the window was full.
    evicted: u64,
}

impl WindowedSeries {
    /// Creates an empty series keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "windowed series needs capacity >= 1");
        WindowedSeries {
            capacity,
            samples: Vec::new(),
            head: 0,
            evicted: 0,
        }
    }

    /// Appends a sample, evicting the oldest when the window is full.
    pub fn push(&mut self, at_secs: f64, value: f64) {
        let sample = Sample { at_secs, value };
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
            self.evicted += 1;
        }
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted after the window filled.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total samples ever pushed (retained + evicted).
    pub fn pushed(&self) -> u64 {
        self.evicted + self.samples.len() as u64
    }

    /// Iterates retained samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let (tail, head) = self.samples.split_at(self.head);
        head.iter().chain(tail.iter()).copied()
    }

    /// Smallest value in the window, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).reduce(f64::min)
    }

    /// Largest value in the window, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).reduce(f64::max)
    }

    /// Mean value over the window, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|s| s.value).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// The most recent sample, `None` when empty.
    pub fn last(&self) -> Option<Sample> {
        if self.samples.is_empty() {
            None
        } else if self.samples.len() < self.capacity {
            self.samples.last().copied()
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            Some(self.samples[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_under_capacity() {
        let mut w = WindowedSeries::new(4);
        assert!(w.is_empty());
        for i in 0..3 {
            w.push(i as f64, (i * 10) as f64);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.evicted(), 0);
        let times: Vec<f64> = w.iter().map(|s| s.at_secs).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
        assert_eq!(w.last().unwrap().value, 20.0);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut w = WindowedSeries::new(3);
        for i in 0..7 {
            w.push(i as f64, i as f64);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.evicted(), 4);
        assert_eq!(w.pushed(), 7);
        let times: Vec<f64> = w.iter().map(|s| s.at_secs).collect();
        assert_eq!(times, vec![4.0, 5.0, 6.0]);
        assert_eq!(w.last().unwrap().at_secs, 6.0);
        assert_eq!(w.min(), Some(4.0));
        assert_eq!(w.max(), Some(6.0));
        assert_eq!(w.mean(), Some(5.0));
    }

    #[test]
    fn empty_stats_are_none() {
        let w = WindowedSeries::new(2);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.mean(), None);
        assert!(w.last().is_none());
    }

    #[test]
    fn serializes_the_window_in_push_order_with_evicted() {
        let mut w = WindowedSeries::new(2);
        for i in 0..5 {
            w.push(i as f64, i as f64);
        }
        let json = serde_json::to_value(&w).unwrap();
        // The ring is written as stored; read from `head` it is push order.
        let head = json["head"].as_u64().unwrap() as usize;
        let ring = json["samples"].as_array().unwrap();
        let values: Vec<f64> = (0..ring.len())
            .map(|i| ring[(head + i) % ring.len()]["value"].as_f64().unwrap())
            .collect();
        assert_eq!(values, [3.0, 4.0]);
        assert_eq!(json["evicted"].as_u64(), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        WindowedSeries::new(0);
    }
}
