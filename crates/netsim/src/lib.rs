//! # bgpsim-netsim
//!
//! A small, deterministic discrete-event simulation engine — the
//! substrate on which the `bgpsim` BGP routing study runs. It plays the
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
//! 3. **Simplicity** — the engine is generic over the event type and has
//!    no knowledge of BGP; higher layers define their own event enums.
//!
//! ## Example
//!
//! ```
//! use bgpsim_netsim::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_at(SimTime::from_millis(10), Ev::Ping);
//! let mut pongs = 0;
//! engine.run(|eng, ev| match ev {
//!     Ev::Ping => {
//!         eng.schedule_after(SimDuration::from_millis(5), Ev::Pong);
//!     }
//!     Ev::Pong => pongs += 1,
//! });
//! assert_eq!(pongs, 1);
//! assert_eq!(engine.now(), SimTime::from_millis(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod process;
pub mod queue;
pub mod rng;
pub mod time;

/// Convenient glob-import of the most used engine types.
pub mod prelude {
    pub use crate::engine::{Engine, EngineStats, StopReason};
    pub use crate::link::Link;
    pub use crate::process::Processor;
    pub use crate::queue::EventId;
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

        let mut engine: Engine<Ev> = Engine::new();
        let mut link = Link::new(SimDuration::from_millis(2));
        let mut cpu = Processor::new();

        // Three messages sent at t = 0, 1ms, 2ms.
        for (i, ms) in [0u64, 1, 2].into_iter().enumerate() {
            let arr = link.transmit(SimTime::from_millis(ms)).unwrap();
            engine.schedule_at(arr, Ev::Arrive(i as u32));
        }

        let mut completions = Vec::new();
        engine.run(|eng, ev| match ev {
            Ev::Arrive(i) => {
                let done = cpu.admit(eng.now(), SimDuration::from_millis(100));
                eng.schedule_at(done, Ev::Done(i));
            }
            Ev::Done(i) => completions.push((eng.now(), i)),
        });

        assert_eq!(
            completions,
            vec![
                (SimTime::from_millis(102), 0),
                (SimTime::from_millis(202), 1),
                (SimTime::from_millis(302), 2),
            ]
        );
    }

    /// Two engines driven by the same seed must evolve identically.
    #[test]
    fn seeded_runs_are_identical() {
        fn run(seed: u64) -> Vec<(SimTime, u64)> {
            let mut engine: Engine<u64> = Engine::new();
            let mut rng = SimRng::new(seed);
            engine.schedule_at(SimTime::ZERO, 0);
            let mut log = Vec::new();
            engine.run(|eng, n| {
                log.push((eng.now(), n));
                if n < 50 {
                    let d = rng.uniform_duration(
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(500),
                    );
                    eng.schedule_after(d, n + 1);
                }
            });
            log
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
