//! The baselines of the paper:
//!
//! * **Ansor** (Zheng et al., OSDI'20) — the state-of-the-art statistical
//!   auto-scheduler HARL compares against: evolutionary parameter search
//!   guided by an on-line cost model, uniform sketch selection, ε-greedy
//!   measurement selection, and the greedy gradient task scheduler for
//!   end-to-end networks (the formulas HARL reuses in Eq. 3; the network
//!   loop it schedules is [`NetworkTuner`](crate::NetworkTuner), shared
//!   with HARL).
//! * **Flextensor-like** fixed-length RL tuner — backs Observation 2 /
//!   Fig. 1(c) and the fixed-vs-adaptive comparisons.

pub mod evolution;
pub mod flextensor;
pub mod task_sched;
pub mod tuner;

pub use evolution::{evolve_candidates, EvoConfig};
pub use flextensor::{FlextensorConfig, FlextensorProposer, FlextensorTuner, FlextensorTunerState};
pub use task_sched::{task_gradient, weighted_latency, GreedyTaskScheduler, TaskInfo, TaskState};
pub use tuner::{AnsorConfig, AnsorProposer, AnsorTuner, AnsorTunerState};
