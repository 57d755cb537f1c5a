//! Per-node passes on the `parcolor-exec` pool, one walk per stripe of
//! [`STRIPE`] consecutive indices.
//!
//! A stage's Definition-2 table ([`crate::node_params`]), its `Vstart`
//! ([`crate::hknt::vstart`]), each step's in-stage rows
//! ([`crate::hknt::procs::StageSet`]) and the final
//! [`verify_coloring`](crate::instance::D1lcInstance::verify_coloring)
//! read only per-node state and neighbor lists, so workers steal their
//! index ranges stripe by stripe.  Every output is positional, or a
//! grouping-invariant fold, so it is the same at every worker count.

use parcolor_exec::{par_fill, par_map_chunks, resolve_workers, Executor, ScatterMut};

/// Indices per stripe of the pool passes.
pub(crate) const STRIPE: usize = 1024;

/// Workers for a pass over `len` indices: the auto count, but no more
/// than full stripes, so a pass under two stripes runs inline without
/// waking the pool.
pub(crate) fn stripe_workers(len: usize) -> usize {
    resolve_workers(0).min(len / STRIPE).max(1)
}

/// Build `rows` CSR rows on the pool, one walk per row.
///
/// `fill(i, buf)` writes row `i` at the front of `buf`, at most `cap(i)`
/// entries, and returns the row's length and a per-row tag.  Each stripe
/// of rows writes its rows back to back into its own region of one
/// buffer sized by `Σ cap(i)`, and each row's length into `off[i + 1]`;
/// then `off` is prefix-summed and the regions are compacted in place,
/// in stripe order.  Returns `(off, tags, entries)`: row `i` is
/// `entries[off[i]..off[i + 1]]`.
pub(crate) fn par_rows<X: Copy + Default + Send>(
    rows: usize,
    cap: impl Fn(usize) -> usize + Sync,
    fill: impl Fn(usize, &mut [u32]) -> (usize, X) + Sync,
) -> (Vec<usize>, Vec<X>, Vec<u32>) {
    let pool = Executor::global();
    let workers = stripe_workers(rows);
    let stripes = rows.div_ceil(STRIPE);
    let stripe = |s: usize| s * STRIPE..((s + 1) * STRIPE).min(rows);
    // Stripe `s` writes `entries[region[s]..region[s + 1]]`.
    let mut region = vec![0usize; stripes + 1];
    par_fill(pool, workers, &mut region[1..], 1, |s, size| {
        size[0] = stripe(s).map(&cap).sum();
    });
    for s in 0..stripes {
        region[s + 1] += region[s];
    }
    let mut entries = vec![0u32; region[stripes]];
    let mut off = vec![0usize; rows + 1];
    let mut tags = vec![X::default(); rows];
    let buf = ScatterMut::new(&mut entries);
    let lens = ScatterMut::new(&mut off[1..]);
    let row_tags = ScatterMut::new(&mut tags);
    par_map_chunks(pool, workers, rows, STRIPE, |start, len| {
        let s = start / STRIPE;
        // SAFETY: the chunks of one `par_map_chunks` call are disjoint,
        // `STRIPE`-aligned row ranges, so this call is the only writer of
        // rows `start..start + len` of `off[1..]` and `tags` and of
        // stripe `s`'s region, and the regions of distinct stripes are
        // disjoint spans of `entries`.
        let (buf, lens, row_tags) = unsafe {
            (
                buf.stripe_mut(region[s], region[s + 1] - region[s]),
                lens.stripe_mut(start, len),
                row_tags.stripe_mut(start, len),
            )
        };
        let mut at = 0;
        for (i, (row_len, tag)) in (start..).zip(lens.iter_mut().zip(row_tags)) {
            let (written, x) = fill(i, &mut buf[at..]);
            debug_assert!(written <= cap(i), "row {i} outgrew its capacity");
            at += written;
            (*row_len, *tag) = (written, x);
        }
    });
    for i in 0..rows {
        off[i + 1] += off[i];
    }
    // Each stripe's rows move down to their final offset: never above
    // their region, and never onto a later region.
    for (s, &from) in region[..stripes].iter().enumerate() {
        let r = stripe(s);
        let len = off[r.end] - off[r.start];
        entries.copy_within(from..from + len, off[r.start]);
    }
    entries.truncate(off[rows]);
    entries.shrink_to_fit();
    (off, tags, entries)
}
