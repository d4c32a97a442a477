//! # bgpsim-netsim
//!
//! The parts of a small, deterministic discrete-event simulation —
//! event queue, clock, RNG, links and processors — and the substrate on which the `bgpsim` BGP routing study runs. It plays the
//! role SSFNet played in the original ICDCS 2004 paper *"A Study of BGP
//! Path Vector Route Looping Behavior"* (Pei, Zhao, Massey, Zhang).
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — integer-nanosecond clock, total event order
//!    `(time, schedule sequence)`, and a single seeded RNG
//!    ([`rng::SimRng`]) so every run is exactly reproducible.
//! 2. **Fidelity to the study's model** — serialized per-node message
//!    processing ([`process::Processor`]) and reliable in-order links
//!    with propagation delay ([`link::Link`]).
//! 3. **Simplicity** — the crate has no knowledge of BGP and no event
//!    loop of its own: [`queue::EventQueue`] orders any payload type,
//!    and the network layer on top owns the clock and the loop that
//!    pops it.
//!
//! ## Example
//!
//! ```
//! use bgpsim_netsim::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_millis(10), Ev::Ping);
//! let mut now = SimTime::ZERO;
//! let mut pongs = 0;
//! while let Some((at, _, ev)) = queue.pop() {
//!     now = at;
//!     match ev {
//!         Ev::Ping => {
//!             queue.schedule(now + SimDuration::from_millis(5), Ev::Pong);
//!         }
//!         Ev::Pong => pongs += 1,
//!     }
//! }
//! assert_eq!(pongs, 1);
//! assert_eq!(now, SimTime::from_millis(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod process;
pub mod queue;
pub mod rng;
pub mod time;

/// Convenient glob-import of the most used simulation types.
pub mod prelude {
    pub use crate::link::Link;
    pub use crate::process::Processor;
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod integration_tests {
    use crate::prelude::*;

    /// A tiny M/D/1-style pipeline: messages arrive over a link into a
    /// serial processor; completion order and times must be exact.
    #[test]
    fn link_into_processor_pipeline() {
        #[derive(Debug)]
        enum Ev {
            Arrive(u32),
            Done(u32),
        }

        let mut queue = EventQueue::new();
        let mut link = Link::new(SimDuration::from_millis(2));
        let mut cpu = Processor::new();

        // Three messages sent at t = 0, 1ms, 2ms.
        for (i, ms) in [0u64, 1, 2].into_iter().enumerate() {
            let arr = link.transmit(SimTime::from_millis(ms)).unwrap();
            queue.schedule(arr, Ev::Arrive(i as u32));
        }

        let mut completions = Vec::new();
        while let Some((now, _, ev)) = queue.pop() {
            match ev {
                Ev::Arrive(i) => {
                    let done = cpu.admit(now, SimDuration::from_millis(100));
                    queue.schedule(done, Ev::Done(i));
                }
                Ev::Done(i) => completions.push((now, i)),
            }
        }

        assert_eq!(
            completions,
            vec![
                (SimTime::from_millis(102), 0),
                (SimTime::from_millis(202), 1),
                (SimTime::from_millis(302), 2),
            ]
        );
    }
}
