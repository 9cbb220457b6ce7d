//! Host-speed normalisation of measured times.
//!
//! The reference machine is a share of a shared host whose single-core
//! speed moves by up to a quarter within seconds and stays slow or fast
//! for minutes at a time; a fixed loop of integer work read 0.34–0.60 s
//! within one minute, and CPU time followed wall time, so no clock of the
//! process filters it out. Medians over a run cannot remove a slowdown
//! that lasts the whole run, so every end-to-end time is reported at a
//! fixed reference speed instead.
//!
//! The speed is read with a *probe*: a fixed pointer chase through a
//! 256 KiB random ring ([`PROBE_STEPS`] steps, about a millisecond),
//! benchmark code that allocates nothing and calls nothing of the
//! program. A [`Speedometer`] runs it on the measuring thread — on the
//! measured CPU — between operations, at most every [`PERIOD`], and
//! around each measured interval. An interval's time is its wall time,
//! probe time excluded, times [`REFERENCE_PROBE_NS`] over the median
//! probe time within it: a slower host stretches the probe as much as the
//! work, a slower program stretches only the work.

use std::time::{Duration, Instant};

/// The probe's pointer-chase steps.
pub const PROBE_STEPS: usize = 200_000;

/// The probe time that defines the reference speed, in nanoseconds: about
/// the probe's time on the reference machine while its host is fast, so
/// reported times are close to the wall times of such a stretch.
pub const REFERENCE_PROBE_NS: f64 = 1e6;

/// Least time between two probes inside an interval (probes take about
/// 3 % of the measuring time).
pub const PERIOD: Duration = Duration::from_millis(40);

/// Slots in the probe's ring (4 bytes each: 256 KiB, more than L1 and
/// less than L2 on the reference machine).
const RING: usize = 1 << 16;

/// Reads the host speed between measured operations.
pub struct Speedometer {
    /// `next[i]` is the slot after `i` on one random cycle through all.
    next: Vec<u32>,
    /// Probe between operations ([`Speedometer::tick`]) or only around
    /// intervals.
    ticking: bool,
    /// A process sharing the CPU whose own CPU time, should it run during
    /// a probe, voids that probe.
    watch: Option<u32>,
    last: Option<Instant>,
    /// Probe times, nanoseconds.
    samples: Vec<u64>,
    /// Probes voided by the watched process.
    voided: usize,
    /// Time spent probing so far, void probes included.
    probing: Duration,
}

/// The start of a measured interval ([`Speedometer::start`]).
pub struct Mark {
    sample: usize,
    probing: Duration,
    at: Instant,
}

/// A measured interval: its wall time without probes, and the factor that
/// takes its times to the reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Wall time, probe time excluded, seconds.
    pub wall_s: f64,
    /// [`REFERENCE_PROBE_NS`] over the interval's median probe time.
    pub scale: f64,
}

impl Interval {
    /// The interval's time at the reference speed, seconds.
    pub fn secs(&self) -> f64 {
        self.wall_s * self.scale
    }

    /// A time measured within the interval, taken to the reference speed.
    pub fn scale_ns(&self, ns: u64) -> u64 {
        (ns as f64 * self.scale).round() as u64
    }
}

impl Speedometer {
    /// A speedometer that probes between operations and around intervals.
    pub fn new() -> Self {
        let mut rng = minicheck::Rng::new(0x5eed);
        let mut order: Vec<u32> = (0..RING as u32).collect();
        crate::shuffle(&mut rng, &mut order);
        let mut next = vec![0; RING];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % RING];
        }
        Speedometer {
            next,
            ticking: true,
            watch: None,
            last: None,
            samples: Vec::new(),
            voided: 0,
            probing: Duration::ZERO,
        }
    }

    /// A speedometer that probes only around intervals, so no probe lands
    /// inside a traced span.
    pub fn at_bounds() -> Self {
        Speedometer { ticking: false, ..Speedometer::new() }
    }

    /// Voids every later probe during which process `pid` (a daemon on the
    /// same CPU, finishing a request after answering it) used the CPU.
    pub fn watch(&mut self, pid: Option<u32>) {
        self.watch = pid;
    }

    /// Between two operations: probes if [`PERIOD`] has gone by since the
    /// last probe.
    pub fn tick(&mut self) {
        if self.ticking && self.last.is_none_or(|t| t.elapsed() >= PERIOD) {
            self.probe();
        }
    }

    /// Probes, then starts an interval.
    pub fn start(&mut self) -> Mark {
        let sample = self.samples.len();
        self.probe();
        Mark { sample, probing: self.probing, at: Instant::now() }
    }

    /// Ends the interval begun at `mark`, then probes.
    pub fn finish(&mut self, mark: Mark) -> Interval {
        let wall = mark.at.elapsed().saturating_sub(self.probing - mark.probing);
        self.probe();
        let mut within = self.samples[mark.sample..].to_vec();
        if within.is_empty() {
            // Every probe of the interval was void: fall back to the latest.
            let from = self.samples.len().saturating_sub(8);
            within = self.samples[from..].to_vec();
        }
        let scale = if within.is_empty() {
            1.0
        } else {
            within.sort_unstable();
            REFERENCE_PROBE_NS / within[within.len() / 2] as f64
        };
        Interval { wall_s: wall.as_secs_f64(), scale }
    }

    /// Every probe time so far, nanoseconds.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Probes voided so far because the watched process ran during them.
    pub fn voided(&self) -> usize {
        self.voided
    }

    fn probe(&mut self) {
        let busy0 = self.watch.and_then(cpu_ns);
        let t0 = Instant::now();
        let mut slot = 0u32;
        let mut acc = 0u64;
        for _ in 0..PROBE_STEPS {
            slot = self.next[slot as usize];
            acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(slot)) ^ (acc >> 29);
        }
        std::hint::black_box(acc);
        let took = t0.elapsed();
        self.probing += took;
        self.last = Some(Instant::now());
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        // A wake-up of the watched process costs microseconds; more than
        // 2 % of the probe means it did work while the probe ran.
        let void = match (busy0, self.watch.and_then(cpu_ns)) {
            (Some(a), Some(b)) => b.saturating_sub(a) * 50 > ns,
            _ => false,
        };
        if void {
            self.voided += 1;
        } else {
            self.samples.push(ns);
        }
    }
}

impl Default for Speedometer {
    fn default() -> Self {
        Speedometer::new()
    }
}

/// CPU time of all threads of process `pid` so far, nanoseconds, from
/// procfs (`schedstat`: time on the CPU, first field).
fn cpu_ns(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for task in tasks.flatten() {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle_through_every_slot() {
        let s = Speedometer::new();
        let mut seen = vec![false; RING];
        let mut slot = 0u32;
        for _ in 0..RING {
            assert!(!seen[slot as usize], "slot {slot} visited twice");
            seen[slot as usize] = true;
            slot = s.next[slot as usize];
        }
        assert_eq!(slot, 0);
    }

    #[test]
    fn interval_excludes_probe_time_and_scales_by_its_probes() {
        let mut s = Speedometer::new();
        let mark = s.start();
        std::thread::sleep(Duration::from_millis(50));
        s.tick(); // PERIOD has gone by: probes, outside the interval's time
        let iv = s.finish(mark);
        assert_eq!(s.samples().len(), 3);
        assert!((0.05..0.05 + 0.9 * PERIOD.as_secs_f64()).contains(&iv.wall_s), "{iv:?}");
        let mut probes = s.samples().to_vec();
        probes.sort_unstable();
        assert_eq!(iv.scale, REFERENCE_PROBE_NS / probes[1] as f64);
        assert_eq!(iv.scale_ns(1000), (1000.0 * iv.scale).round() as u64);
    }

    #[test]
    fn at_bounds_probes_only_around_intervals() {
        let mut s = Speedometer::at_bounds();
        let mark = s.start();
        std::thread::sleep(PERIOD);
        s.tick();
        s.finish(mark);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn watched_process_reads_its_cpu_time() {
        assert!(cpu_ns(std::process::id()).is_some_and(|ns| ns > 0));
    }
}
