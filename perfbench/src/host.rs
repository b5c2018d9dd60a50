//! Readings of the host and of one process, taken from `/proc`.
//!
//! Wall-clock on a shared 2-vCPU host moves with CPU steal, so every
//! run records the steal share of its timed window, and the CPU time
//! the program's process spent per operation sits beside wall-clock.
//! One request per connection leaves a TIME_WAIT socket behind per
//! request; a serve run first waits, within a fixed bound, until the
//! previous runs' sockets have mostly expired.

use std::io;
use std::time::{Duration, Instant};

/// Linux reports process CPU times in ticks of `USER_HZ`, which is 100
/// on every architecture the kernel exports it for.
const TICK_MS: f64 = 10.0;

/// The timed window of an untraced run is split into this many equal
/// slices ...
pub const SLICES: u32 = 5;
/// ... with an idle pause of this many slice lengths between two
/// slices. The host's speed drifts over tens of seconds, so one run
/// samples it across 2.6x the time it measures.
const PAUSE_SLICES: u32 = 2;

/// A serve run starts once fewer TIME_WAIT sockets than this remain.
pub const TIME_WAIT_LIMIT: u64 = 16_384;
/// ... or once it has waited this long, whichever comes first.
pub const TIME_WAIT_MAX_WAIT: Duration = Duration::from_secs(20);

fn read(path: &str) -> io::Result<String> {
    std::fs::read_to_string(path)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected format in {what}"),
    )
}

/// User plus system CPU time of process `pid`, all its threads
/// included (exited ones too), in milliseconds.
pub fn process_cpu_ms(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/stat");
    let text = read(&path)?;
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'. There, index 0 is field 3 (state), so utime
    // (field 14) and stime (field 15) sit at 11 and 12.
    let rest = text.rsplit_once(')').ok_or_else(|| bad(&path))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad(&path))
    };
    Ok((tick(11)? + tick(12)?) as f64 * TICK_MS)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/status");
    let text = read(&path)?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad(&path))?;
    Ok(kib as f64 / 1024.0)
}

/// Cumulative host CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Read the aggregate `cpu` line.
    pub fn now() -> io::Result<Self> {
        let text = read("/proc/stat")?;
        let line = text
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or_else(|| bad("/proc/stat"))?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the total stops at steal.
        if v.len() < 8 {
            return Err(bad("/proc/stat"));
        }
        Ok(Self {
            steal: v[7],
            total: v[..8].iter().sum(),
        })
    }

    /// Share of host CPU time stolen by the hypervisor between `self`
    /// and the later reading `end`.
    pub fn steal_share_until(&self, end: &CpuTicks) -> f64 {
        let total = end.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        end.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// TCP sockets in TIME_WAIT, host-wide, from `/proc/net/sockstat`.
pub fn time_wait() -> io::Result<u64> {
    let text = read("/proc/net/sockstat")?;
    let line = text
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .ok_or_else(|| bad("/proc/net/sockstat"))?;
    let mut it = line.split_whitespace();
    while let Some(key) = it.next() {
        if key == "tw" {
            return it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("/proc/net/sockstat"));
        }
    }
    Err(bad("/proc/net/sockstat"))
}

/// Run `measure` once per slice of a `seconds`-long timed window, with
/// the pauses between slices. Returns the CPU milliseconds process `pid`
/// spent inside the slices and the host's steal share over the whole
/// span.
pub fn sliced(seconds: u64, pid: u32, mut measure: impl FnMut(Duration)) -> io::Result<(f64, f64)> {
    let slice = Duration::from_secs_f64(seconds as f64 / f64::from(SLICES));
    let steal0 = CpuTicks::now()?;
    let mut cpu_ms = 0.0;
    for i in 0..SLICES {
        if i > 0 {
            std::thread::sleep(slice * PAUSE_SLICES);
        }
        let before = process_cpu_ms(pid)?;
        measure(slice);
        cpu_ms += process_cpu_ms(pid)? - before;
    }
    Ok((cpu_ms, steal0.steal_share_until(&CpuTicks::now()?)))
}

/// Wait until TIME_WAIT drops below [`TIME_WAIT_LIMIT`], at most
/// [`TIME_WAIT_MAX_WAIT`]. Returns the reading taken before waiting and
/// the time waited. No run is skipped or repeated because of it.
pub fn settle_time_wait() -> io::Result<(u64, Duration)> {
    let start = Instant::now();
    let first = time_wait()?;
    let mut now = first;
    while now >= TIME_WAIT_LIMIT && start.elapsed() < TIME_WAIT_MAX_WAIT {
        std::thread::sleep(Duration::from_millis(200));
        now = time_wait()?;
    }
    Ok((first, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_positive() {
        let pid = std::process::id();
        let spin: u64 = (0..2_000_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(process_cpu_ms(pid).expect("stat") >= 0.0);
        assert!(peak_rss_mib(pid).expect("status") > 0.0);
        let a = CpuTicks::now().expect("/proc/stat");
        let share = a.steal_share_until(&CpuTicks::now().expect("/proc/stat"));
        assert!((0.0..=1.0).contains(&share));
        time_wait().expect("sockstat");
    }
}
