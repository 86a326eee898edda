//! Event calendar: one wake cycle per component token, scanned linearly.
//!
//! The fast run loop ([`crate::system::Soc`]) keeps a token per master,
//! the DRAM controller, the crossbar backlog and each controller, woken
//! at the earliest cycle ticking it could change state. With a handful
//! of tokens (a few dozen on the largest machines), one pass over the
//! flat `wake` array per executed cycle both finds the next due cycle
//! and takes every token due there ([`EventCalendar::take_next`]).
//!
//! Past wakes: a cursor holds the latest cycle `take_next` was called at
//! or took; scheduling below it is a logic error (debug-asserted), and a
//! wake the cursor passed untaken is ignored (only wakes `>= now` are
//! due).

/// Wake cycle meaning "never".
pub const NEVER: u64 = u64::MAX;

/// A flat event calendar over dense component tokens.
///
/// ```
/// use fgqos_sim::calendar::{EventCalendar, NEVER};
///
/// let mut cal = EventCalendar::new(3, 0);
/// cal.set(0, 5);
/// cal.set(1, 5);
/// cal.set(2, 100_000); // far future
/// let mut due = Vec::new();
/// assert_eq!(cal.take_next(0, NEVER, &mut due), Some(5));
/// assert_eq!(due, [0, 1]);
/// assert_eq!(cal.wake_of(0), NEVER); // taken tokens must be rescheduled
/// assert_eq!(cal.take_next(6, 100_000, &mut due), None); // not before the limit
/// assert_eq!(cal.take_next(6, NEVER, &mut due), Some(100_000));
/// assert_eq!(due, [2]);
/// ```
#[derive(Debug)]
pub struct EventCalendar {
    /// Earliest wake per token; `NEVER` = unscheduled.
    wake: Vec<u64>,
    /// Latest cycle `take_next` was called at or took.
    cursor: u64,
}

impl EventCalendar {
    /// A calendar for `tokens` unscheduled components, starting at cycle `cursor`.
    pub fn new(tokens: usize, cursor: u64) -> Self {
        let wake = vec![NEVER; tokens];
        EventCalendar { wake, cursor }
    }

    /// The wake of `token` (`NEVER` when unscheduled).
    pub fn wake_of(&self, token: u32) -> u64 {
        self.wake[token as usize]
    }

    /// Schedules `token` at exactly `cycle` (`NEVER` unschedules it).
    pub fn set(&mut self, token: u32, cycle: u64) {
        debug_assert!(cycle >= self.cursor, "cannot schedule in the past");
        self.wake[token as usize] = cycle;
    }

    /// Schedules `token` at `cycle` if that is earlier than its wake.
    pub fn set_min(&mut self, token: u32, cycle: u64) {
        if cycle < self.wake[token as usize] {
            self.set(token, cycle);
        }
    }

    /// Unschedules `token`.
    pub fn clear(&mut self, token: u32) {
        self.wake[token as usize] = NEVER;
    }

    /// Finds the earliest wake in `now..limit` and takes every token due
    /// then into `out` (ascending), unscheduling them, in one pass over
    /// the wake array (the taken tokens are then written once more), for
    /// any token count. Returns that cycle, or `None` (taking nothing and
    /// leaving `out` empty) when no wake falls in `now..limit`.
    pub fn take_next(&mut self, now: u64, limit: u64, out: &mut Vec<u32>) -> Option<u64> {
        debug_assert!(now >= self.cursor, "time cannot move backwards");
        self.cursor = now;
        out.clear();
        if limit <= now {
            return None;
        }
        // Distances from `now`: a passed wake wraps to a huge distance,
        // so one comparison against the best distance so far (at first
        // the last cycle before `limit`) filters passed, late and
        // unscheduled wakes alike.
        let mut best = limit - now - 1;
        for (token, &wake) in self.wake.iter().enumerate() {
            let d = wake.wrapping_sub(now);
            if d <= best {
                if d < best {
                    best = d;
                    out.clear();
                }
                out.push(token as u32);
            }
        }
        if out.is_empty() {
            return None;
        }
        for &token in out.iter() {
            self.wake[token as usize] = NEVER;
        }
        self.cursor = now + best;
        Some(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Earliest wake `>= now` (the reference the fused pass must agree
    /// with), moving the cursor to `now` as the run loop's clock does.
    fn next_due(cal: &mut EventCalendar, now: u64) -> Option<u64> {
        assert!(now >= cal.cursor, "time cannot move backwards");
        cal.cursor = now;
        let next = cal.wake.iter().map(|&w| if w >= now { w } else { NEVER });
        next.min().filter(|&w| w != NEVER)
    }

    /// Takes the tokens due at exactly `now`.
    fn due_at(cal: &mut EventCalendar, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        cal.take_next(now, now + 1, &mut out);
        out
    }

    #[test]
    fn near_and_far_scheduling() {
        let mut cal = EventCalendar::new(4, 0);
        cal.set(0, 3);
        cal.set(1, 300);
        cal.set(2, 70_000);
        assert_eq!(next_due(&mut cal, 0), Some(3));
        assert_eq!(due_at(&mut cal, 3), [0]);
        assert_eq!(next_due(&mut cal, 4), Some(300));
        assert_eq!(due_at(&mut cal, 300), [1]);
        assert_eq!(next_due(&mut cal, 301), Some(70_000));
        assert_eq!(due_at(&mut cal, 70_000), [2]);
        assert_eq!(next_due(&mut cal, 70_001), None);
    }

    #[test]
    fn reschedule_supersedes_lazily() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 10);
        cal.set(0, 5); // earlier
        assert_eq!(next_due(&mut cal, 0), Some(5));
        assert_eq!(due_at(&mut cal, 5), [0]);
        // The superseded wake at 10 must not resurface.
        assert_eq!(next_due(&mut cal, 6), None);

        cal.set(1, 20);
        cal.set(1, 40); // later: the wake at 20 is superseded
        assert_eq!(next_due(&mut cal, 6), Some(40));
        assert!(due_at(&mut cal, 20).is_empty());
        assert_eq!(due_at(&mut cal, 40), [1]);
    }

    #[test]
    fn set_min_keeps_earlier_wake() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 8);
        cal.set_min(0, 12); // no-op
        assert_eq!(cal.wake_of(0), 8);
        cal.set_min(0, 4);
        assert_eq!(next_due(&mut cal, 0), Some(4));
    }

    #[test]
    fn duplicate_set_same_cycle_fires_once() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 7);
        cal.set(0, 7);
        assert_eq!(due_at(&mut cal, 7), [0]);
        assert_eq!(next_due(&mut cal, 8), None);
    }

    #[test]
    fn clear_unschedules() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 9);
        cal.set(1, 500);
        cal.clear(0);
        cal.clear(1);
        assert_eq!(next_due(&mut cal, 0), None);
        assert!(due_at(&mut cal, 9).is_empty());
    }

    #[test]
    fn take_due_returns_tokens_sorted() {
        let mut cal = EventCalendar::new(5, 0);
        for t in [4u32, 1, 3, 0] {
            cal.set(t, 11);
        }
        assert_eq!(due_at(&mut cal, 11), [0, 1, 3, 4]);
    }

    #[test]
    fn wheel_wraparound_does_not_alias() {
        let mut cal = EventCalendar::new(2, 0);
        // Two wakes 256 cycles apart: congruent modulo any 256-slot ring.
        cal.set(0, 10);
        cal.set(1, 10 + 256);
        assert_eq!(next_due(&mut cal, 0), Some(10));
        assert_eq!(due_at(&mut cal, 10), [0]);
        assert_eq!(next_due(&mut cal, 11), Some(10 + 256));
        assert_eq!(due_at(&mut cal, 10 + 256), [1]);
    }

    #[test]
    fn far_events_migrate_into_wheel() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 1_000);
        // The cursor moves close to the far wake before it falls due.
        assert_eq!(next_due(&mut cal, 900), Some(1_000));
        assert_eq!(due_at(&mut cal, 1_000), [0]);
    }

    #[test]
    fn wake_exactly_on_wheel_boundary_waits_in_far_heap() {
        let mut cal = EventCalendar::new(3, 0);
        // Wakes on either side of cycle 256, two tokens sharing the later
        // cycle: each must fire exactly once, at its own cycle.
        let edge = 256;
        cal.set(0, edge - 1);
        cal.set(1, edge);
        cal.set(2, edge); // two tokens sharing the boundary cycle
        assert_eq!(next_due(&mut cal, 0), Some(edge - 1));
        assert_eq!(due_at(&mut cal, edge - 1), [0]);
        assert_eq!(next_due(&mut cal, edge), Some(edge));
        assert_eq!(due_at(&mut cal, edge), [1, 2]);
        assert_eq!(next_due(&mut cal, edge + 1), None);
    }

    #[test]
    fn boundary_reschedule_across_the_window_edge() {
        let mut cal = EventCalendar::new(1, 0);
        // Push a token back and forth across cycle 256: the final wake
        // wins and the superseded ones never fire.
        let edge = 256;
        cal.set(0, edge - 1);
        cal.set(0, edge + 5);
        cal.set(0, edge - 2);
        assert_eq!(next_due(&mut cal, 0), Some(edge - 2));
        assert_eq!(due_at(&mut cal, edge - 2), [0]);
        assert!(due_at(&mut cal, edge - 1).is_empty());
        assert_eq!(next_due(&mut cal, edge), None);
        assert!(due_at(&mut cal, edge + 5).is_empty());
    }

    #[test]
    fn far_promotion_into_wrapped_slot() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 300);
        cal.set(1, 2_000);

        // At cursor 200, cycle 300 is congruent (mod 256) to a cycle
        // behind the cursor; it must still fire at 300, exactly once.
        assert_eq!(next_due(&mut cal, 200), Some(300));
        assert_eq!(due_at(&mut cal, 300), [0]);
        assert_eq!(next_due(&mut cal, 301), Some(2_000));
        assert_eq!(due_at(&mut cal, 2_000), [1]);
        assert_eq!(next_due(&mut cal, 2_001), None);
    }

    #[test]
    fn dense_steady_state() {
        // Simulates the contended regime: one token rescheduled every few
        // cycles for a long stretch, interleaved with a periodic far wake.
        let mut cal = EventCalendar::new(2, 0);
        let mut now = 0;
        cal.set(1, 10_000);
        let mut fired = 0;
        while now < 12_000 {
            cal.set(0, now + 3);
            let mut due = Vec::new();
            let next = cal.take_next(now + 1, NEVER, &mut due).unwrap();
            for t in due {
                if t == 1 {
                    fired += 1;
                    assert_eq!(next, 10_000);
                }
            }
            now = next;
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn passed_wakes_are_ignored() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 5);
        cal.set(1, 50);
        // The cursor skips past token 0's wake without taking it.
        assert_eq!(next_due(&mut cal, 10), Some(50));
        assert_eq!(cal.wake_of(0), 5);
        assert_eq!(due_at(&mut cal, 50), [1]);
        assert_eq!(next_due(&mut cal, 51), None);
    }

    /// The reference model's wake of `token`.
    fn model_wake(model: &BTreeSet<(u64, u32)>, token: u32) -> u64 {
        model
            .iter()
            .find(|&&(_, t)| t == token)
            .map_or(NEVER, |&(c, _)| c)
    }

    fn model_set(model: &mut BTreeSet<(u64, u32)>, token: u32, cycle: u64) {
        model.remove(&(model_wake(model, token), token));
        if cycle != NEVER {
            model.insert((cycle, token));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random `set`/`set_min`/`clear`/`next_due`/`take_next`
        /// sequences agree with an ordered-set model of `(cycle, token)`
        /// wakes, on calendars of up to 70 tokens (more than a machine
        /// word has bits). Op fields: `(kind, token, offset, size)`; a
        /// wake is the cursor plus an offset below `2^size` (so 0..2^20
        /// cycles ahead), or `NEVER` for size 0; `take_next` takes that
        /// cycle as its limit.
        #[test]
        fn calendar_matches_ordered_set_model(
            tokens in 1u32..=70,
            ops in prop::collection::vec(
                (0u8..5, 0u32..70, 0u64..1 << 20, 0u32..21),
                1..200,
            ),
        ) {
            let mut cal = EventCalendar::new(tokens as usize, 0);
            let mut model = BTreeSet::new();
            let mut cursor = 0u64;
            for (kind, token, offset, size) in ops {
                let token = token % tokens;
                let cycle = match size {
                    0 => NEVER,
                    s => cursor + offset % (1 << s),
                };
                match kind {
                    0 => {
                        cal.set(token, cycle);
                        model_set(&mut model, token, cycle);
                    }
                    1 => {
                        cal.set_min(token, cycle);
                        if cycle < model_wake(&model, token) {
                            model_set(&mut model, token, cycle);
                        }
                    }
                    2 => {
                        cal.clear(token);
                        model_set(&mut model, token, NEVER);
                    }
                    3 => {
                        // Advance to an arbitrary cycle, possibly past
                        // pending wakes (which are then ignored).
                        let now = if cycle == NEVER { cursor } else { cycle };
                        let want = model.range((now, 0)..).next().map(|&(c, _)| c);
                        prop_assert_eq!(next_due(&mut cal, now), want);
                        cursor = now;
                    }
                    _ => {
                        // Take the next due cycle before a limit, as the
                        // run loop does with its deadline.
                        let (start, limit) = (cursor, cycle);
                        let next = model
                            .range((cursor, 0)..)
                            .next()
                            .map(|&(c, _)| c)
                            .filter(|&c| c < limit);
                        let mut want = Vec::new();
                        if let Some(now) = next {
                            want.extend(model.range((now, 0)..=(now, u32::MAX)).map(|&(_, t)| t));
                            for &t in &want {
                                model.remove(&(now, t));
                            }
                            cursor = now;
                        }
                        let mut got = vec![u32::MAX];
                        prop_assert_eq!(cal.take_next(start, limit, &mut got), next);
                        prop_assert_eq!(got, want);
                    }
                }
                for t in 0..tokens {
                    prop_assert_eq!(cal.wake_of(t), model_wake(&model, t));
                }
            }
        }
    }
}
