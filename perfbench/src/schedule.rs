//! Seeded open-loop arrival schedules and the serving request mix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Poisson arrival offsets at `rate` per second over `duration`,
/// identical for identical arguments.
pub fn poisson(rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// One read request of the serving mix.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadKind {
    /// Base-table rows by index; `plus_value` selects `RowPlusValue`.
    Base {
        /// Row indices into the fitted base table.
        rows: Vec<usize>,
        /// `RowPlusValue` when set, `RowOnly` otherwise.
        plus_value: bool,
    },
    /// Held-out rows by index into the held-out set, always `RowPlusValue`.
    External {
        /// Indices into the held-out rows.
        rows: Vec<usize>,
    },
}

/// Base rows per base request.
pub const BASE_ROWS: usize = 16;
/// Held-out rows per external request.
pub const EXTERNAL_ROWS: usize = 4;

/// `count` requests of the mix: 7 base requests (¼ of them
/// `RowPlusValue`) to 1 external request, rows drawn uniformly.
pub fn read_mix(count: usize, base_rows: usize, held_out: usize, seed: u64) -> Vec<ReadKind> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            if rng.gen_range(0..8u32) == 0 {
                ReadKind::External {
                    rows: (0..EXTERNAL_ROWS)
                        .map(|_| rng.gen_range(0..held_out))
                        .collect(),
                }
            } else {
                ReadKind::Base {
                    rows: (0..BASE_ROWS)
                        .map(|_| rng.gen_range(0..base_rows))
                        .collect(),
                    plus_value: rng.gen_range(0..4u32) == 0,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed() {
        let d = Duration::from_secs(3);
        assert_eq!(poisson(100.0, d, 7), poisson(100.0, d, 7));
        assert_ne!(poisson(100.0, d, 7), poisson(100.0, d, 8));
        assert_eq!(read_mix(50, 100, 20, 3), read_mix(50, 100, 20, 3));
        assert_ne!(read_mix(50, 100, 20, 3), read_mix(50, 100, 20, 4));
    }

    #[test]
    fn poisson_offsets_are_ordered_and_near_the_rate() {
        let s = poisson(200.0, Duration::from_secs(20), 11);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().unwrap() < &Duration::from_secs(20));
        let n = s.len() as f64;
        assert!((3_700.0..4_300.0).contains(&n), "{n} arrivals");
    }

    #[test]
    fn mix_is_seven_base_to_one_external() {
        let mix = read_mix(8_000, 100, 20, 5);
        let ext = mix
            .iter()
            .filter(|k| matches!(k, ReadKind::External { .. }))
            .count();
        assert!((850..1_150).contains(&ext), "{ext} external");
        let plus = mix
            .iter()
            .filter(|k| {
                matches!(
                    k,
                    ReadKind::Base {
                        plus_value: true,
                        ..
                    }
                )
            })
            .count();
        assert!((1_550..1_950).contains(&plus), "{plus} RowPlusValue");
    }
}
