#![warn(missing_docs)]
//! Shared infrastructure for the experiment binaries.
//!
//! Each `eN_*` binary prints one experiment's table.  Binaries honor the
//! `PARCOLOR_QUICK=1` environment variable to shrink instance sizes (used
//! by CI-style smoke runs); published numbers use the default sizes.

use std::time::Instant;

/// Aligned plain-text table printer (markdown-pipe compatible).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Print the table with aligned, markdown-pipe-compatible columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:>w$} |", c, w = widths[i]));
            }
            s
        };
        println!("{}", line(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// `true` when the harness should use reduced sizes.
pub fn quick() -> bool {
    std::env::var("PARCOLOR_QUICK").is_ok_and(|v| v == "1")
}

/// Scale a size down in quick mode.
pub fn scaled(full: usize, quick_size: usize) -> usize {
    if quick() {
        quick_size
    } else {
        full
    }
}

/// Time a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// This host as the `"host"` object of a BENCH JSON file: hardware
/// threads and the CPU model (`model name` in `/proc/cpuinfo`,
/// `"unknown"` where that is unavailable).
pub fn host_json() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, model) = line.split_once(':')?;
                (key.trim() == "model name").then(|| model.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu = cpu.replace('\\', "\\\\").replace('"', "\\\"");
    format!("{{\"threads\": {threads}, \"cpu\": \"{cpu}\"}}")
}

/// Peak resident set size of this process in bytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux; returns 0 on other
/// platforms.  The kernel's high-water mark is monotone over the process
/// lifetime, so successive calls report the cumulative peak — scale
/// sweeps should order their legs smallest-first and read this after
/// each leg.
pub fn peak_rss() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Format helpers.
/// Format with one decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format with two decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format with three decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Display-format any value (table-cell shorthand).
pub fn s<T: std::fmt::Display>(x: T) -> String {
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&[s(1), s(2)]);
        t.row(&[s(100), s("x")]);
        t.print(); // smoke: no panic
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn scaled_respects_env() {
        // Not setting the env: full size.
        if !quick() {
            assert_eq!(scaled(100, 10), 100);
        }
    }

    #[test]
    fn timed_returns_result() {
        let (v, ms) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable");
            // A test process certainly holds more than 64 KiB and less
            // than 1 TiB; catches unit mix-ups (kB vs bytes).
            assert!(rss > 64 * 1024 && rss < 1 << 40);
        }
    }
}
