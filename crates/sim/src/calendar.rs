//! Event calendar: one wake cycle per component token, scanned linearly.
//!
//! The fast run loop ([`crate::system::Soc`]) keeps a token per master,
//! the DRAM controller, the crossbar backlog and each controller, woken
//! at the earliest cycle ticking it could change state. With a handful
//! of tokens, one scan of the flat `wake` array finds the next due cycle.
//!
//! Past wakes: a cursor holds the latest cycle passed to `next_due` or
//! `take_due`; scheduling below it is a logic error (debug-asserted), and
//! a wake the cursor passed untaken is ignored (`next_due` sees `>= now`).

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
/// assert_eq!(cal.next_due(0), Some(5));
/// let mut due = Vec::new();
/// cal.take_due(5, &mut due);
/// assert_eq!(due, [0, 1]);
/// assert_eq!(cal.wake_of(0), NEVER); // taken tokens must be rescheduled
/// assert_eq!(cal.next_due(6), Some(100_000));
/// ```
#[derive(Debug)]
pub struct EventCalendar {
    /// Earliest wake per token; `NEVER` = unscheduled.
    wake: Vec<u64>,
    /// Latest cycle passed to `next_due`/`take_due`.
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

    /// Earliest wake `>= now`, or `None` when nothing is scheduled there.
    pub fn next_due(&mut self, now: u64) -> Option<u64> {
        debug_assert!(now >= self.cursor, "time cannot move backwards");
        self.cursor = now;
        let next = self.wake.iter().map(|&w| if w >= now { w } else { NEVER });
        next.min().filter(|&w| w != NEVER)
    }

    /// Takes the tokens due at exactly `now` into `out` (ascending), unscheduling them.
    pub fn take_due(&mut self, now: u64, out: &mut Vec<u32>) {
        debug_assert!(now >= self.cursor, "time cannot move backwards");
        self.cursor = now;
        out.clear();
        for (token, wake) in self.wake.iter_mut().enumerate() {
            if *wake == now && now != NEVER {
                *wake = NEVER;
                out.push(token as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn due_at(cal: &mut EventCalendar, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        cal.take_due(now, &mut out);
        out
    }

    #[test]
    fn near_and_far_scheduling() {
        let mut cal = EventCalendar::new(4, 0);
        cal.set(0, 3);
        cal.set(1, 300);
        cal.set(2, 70_000);
        assert_eq!(cal.next_due(0), Some(3));
        assert_eq!(due_at(&mut cal, 3), [0]);
        assert_eq!(cal.next_due(4), Some(300));
        assert_eq!(due_at(&mut cal, 300), [1]);
        assert_eq!(cal.next_due(301), Some(70_000));
        assert_eq!(due_at(&mut cal, 70_000), [2]);
        assert_eq!(cal.next_due(70_001), None);
    }

    #[test]
    fn reschedule_supersedes_lazily() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 10);
        cal.set(0, 5); // earlier
        assert_eq!(cal.next_due(0), Some(5));
        assert_eq!(due_at(&mut cal, 5), [0]);
        // The superseded wake at 10 must not resurface.
        assert_eq!(cal.next_due(6), None);

        cal.set(1, 20);
        cal.set(1, 40); // later: the wake at 20 is superseded
        assert_eq!(cal.next_due(6), Some(40));
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
        assert_eq!(cal.next_due(0), Some(4));
    }

    #[test]
    fn duplicate_set_same_cycle_fires_once() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 7);
        cal.set(0, 7);
        assert_eq!(due_at(&mut cal, 7), [0]);
        assert_eq!(cal.next_due(8), None);
    }

    #[test]
    fn clear_unschedules() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 9);
        cal.set(1, 500);
        cal.clear(0);
        cal.clear(1);
        assert_eq!(cal.next_due(0), None);
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
        assert_eq!(cal.next_due(0), Some(10));
        assert_eq!(due_at(&mut cal, 10), [0]);
        assert_eq!(cal.next_due(11), Some(10 + 256));
        assert_eq!(due_at(&mut cal, 10 + 256), [1]);
    }

    #[test]
    fn far_events_migrate_into_wheel() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 1_000);
        // The cursor moves close to the far wake before it falls due.
        assert_eq!(cal.next_due(900), Some(1_000));
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
        assert_eq!(cal.next_due(0), Some(edge - 1));
        assert_eq!(due_at(&mut cal, edge - 1), [0]);
        assert_eq!(cal.next_due(edge), Some(edge));
        assert_eq!(due_at(&mut cal, edge), [1, 2]);
        assert_eq!(cal.next_due(edge + 1), None);
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
        assert_eq!(cal.next_due(0), Some(edge - 2));
        assert_eq!(due_at(&mut cal, edge - 2), [0]);
        assert!(due_at(&mut cal, edge - 1).is_empty());
        assert_eq!(cal.next_due(edge), None);
        assert!(due_at(&mut cal, edge + 5).is_empty());
    }

    #[test]
    fn far_promotion_into_wrapped_slot() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 300);
        cal.set(1, 2_000);

        // At cursor 200, cycle 300 is congruent (mod 256) to a cycle
        // behind the cursor; it must still fire at 300, exactly once.
        assert_eq!(cal.next_due(200), Some(300));
        assert_eq!(due_at(&mut cal, 300), [0]);
        assert_eq!(cal.next_due(301), Some(2_000));
        assert_eq!(due_at(&mut cal, 2_000), [1]);
        assert_eq!(cal.next_due(2_001), None);
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
            let next = cal.next_due(now + 1).unwrap();
            let mut due = Vec::new();
            cal.take_due(next, &mut due);
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
        assert_eq!(cal.next_due(10), Some(50));
        assert_eq!(cal.wake_of(0), 5);
        assert_eq!(due_at(&mut cal, 50), [1]);
        assert_eq!(cal.next_due(51), None);
    }

    const TOKENS: u32 = 6;

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

        /// Random `set`/`set_min`/`clear`/`next_due`/`take_due`
        /// sequences agree with an ordered-set model of `(cycle, token)`
        /// wakes. Op fields: `(kind, token, offset, size)`; a wake is
        /// the cursor plus an offset below `2^size` (so 0..2^20 cycles
        /// ahead), or `NEVER` for size 0.
        #[test]
        fn calendar_matches_ordered_set_model(
            ops in prop::collection::vec(
                (0u8..5, 0u32..TOKENS, 0u64..1 << 20, 0u32..21),
                1..200,
            ),
        ) {
            let mut cal = EventCalendar::new(TOKENS as usize, 0);
            let mut model = BTreeSet::new();
            let mut cursor = 0u64;
            for (kind, token, offset, size) in ops {
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
                        prop_assert_eq!(cal.next_due(now), want);
                        cursor = now;
                    }
                    _ => {
                        // Take at the next due cycle, as the run loop does.
                        let Some(&(now, _)) = model.range((cursor, 0)..).next() else {
                            continue;
                        };
                        let want: Vec<u32> =
                            model.range((now, 0)..=(now, u32::MAX)).map(|&(_, t)| t).collect();
                        for &t in &want {
                            model.remove(&(now, t));
                        }
                        let mut got = Vec::new();
                        cal.take_due(now, &mut got);
                        prop_assert_eq!(got, want);
                        cursor = now;
                    }
                }
                for t in 0..TOKENS {
                    prop_assert_eq!(cal.wake_of(t), model_wake(&model, t));
                }
            }
        }
    }
}
