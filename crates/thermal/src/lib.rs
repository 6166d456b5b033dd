//! Thermal modelling for the DTPM reproduction (Chapter 4.2).
//!
//! Two kinds of thermal model live here, mirroring the paper's methodology:
//!
//! * [`network::ThermalNetwork`] — a physical RC thermal network used as the
//!   *ground-truth plant* in the simulator. Using the duality between thermal
//!   and electrical networks, every die/package location is a capacitance and
//!   every heat-flow path a conductance, and the temperatures obey
//!   `C·dT/dt = −G·T + P` (Eq. 4.3). The Odroid plant instantiated by
//!   [`network::ExynosThermalNetwork`] has eight nodes (four big cores, the
//!   little cluster, the GPU, the memory and the board/heat-sink "case"), so it
//!   is deliberately *richer* than the model the controller identifies.
//!
//! * [`state_space::DiscreteThermalModel`] — the discrete linear state-space
//!   model `T[k+1] = As·T[k] + Bs·P[k]` (Eq. 4.4) that the paper identifies
//!   from measurements and uses for prediction (Eq. 4.5). The DTPM controller
//!   only ever sees this reduced model, never the plant.
//!
//! # Hot-path architecture
//!
//! Large calibration/evaluation sweeps step the plant millions of times, so
//! the integrator offers allocation-free forms next to the allocating
//! conveniences:
//!
//! * [`network::ThermalNetwork::step_into`] advances the temperatures in
//!   place through a reusable [`network::RkScratch`] (six preallocated
//!   buffers); [`network::ThermalNetwork::step`] is a thin wrapper, so the
//!   two are bit-identical.
//! * The fan's extra case-to-ambient conductance is a [`network::FanBoost`]
//!   *step parameter* — the per-interval path never clones the network.
//! * [`network::ThermalNetwork::step_transition`] precomputes one RK4 step of
//!   the (linear, constant-coefficient) thermal ODE as an affine map
//!   `T⁺ = R·T + S·p + c`; [`network::StepTransition::apply`] evaluates it
//!   with two dense mat-vecs, several times faster than the staged sweeps and
//!   equal to them up to floating-point reassociation. The simulator caches
//!   one transition per (fan level, ambient).
//! * Per-node inverse capacitances are precomputed at build time, and
//!   [`state_space::DiscreteThermalModel::step_into`] /
//!   [`state_space::DiscreteThermalModel::predict_constant_power_into`] give
//!   the prediction side the same scratch-reuse treatment.
//! * [`state_space::DiscreteThermalModel::horizon_map`] collapses an
//!   `n`-step constant-power prediction into the precomputed affine map
//!   `T[k+n] = Aₙ·T[k] + Bₙ·P` ([`state_space::HorizonMap`]): one
//!   application regardless of the horizon, agreeing with the iterated
//!   predictor to ≤ 1e-12 °C, and with an accumulation order chosen so a
//!   panel (batched) application is bit-identical per lane to the scalar
//!   one. This is the control-path twin of the plant's cached transitions.
//!
//! # Batched (structure-of-arrays) stepping
//!
//! Scenario sweeps advance many *independent* plants through the same
//! network, so beyond the scalar transition there is a batch form:
//! [`network::ThermalNetwork::batch_step_transition`] builds a
//! [`network::BatchStepTransition`] that advances a `numeric::Panel` of
//! temperatures — **one scenario per column**, each node row contiguous
//! across scenarios. One call to
//! [`network::BatchStepTransition::apply_panel_bias`] is a blocked mat-mat
//! that streams the two `n × n` matrices through the cache once for *all*
//! lanes, instead of once per scenario as the scalar
//! [`network::StepTransition::apply`] loop does.
//!
//! Lanes need not share the transition key (fan boost, ambient, step size).
//! The ambient enters the ODE only as a constant input, so it changes the
//! drive `c` and never `R` or `S_p`: lanes that differ only in ambient share
//! the matrices and carry their own drive in a per-lane drive panel, the
//! `drive` argument of `apply_panel_bias`. Lanes with different fan levels
//! advance through per-lane coefficient panels gathered from the
//! [`network::BatchStepTransition::r`] / `s_power` / `ambient_drive` views
//! (`numeric::gathered_affine_apply`). Every form accumulates each lane in
//! the same order, so all are bit-identical per lane to the panel path (and
//! to the scalar transition). Scalar stepping remains the right tool for a
//! single trajectory; the panel pays for itself from a handful of lanes up.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Vector};
//! use thermal_model::DiscreteThermalModel;
//!
//! # fn main() -> Result<(), thermal_model::ThermalError> {
//! // A 2-hotspot, 1-input toy model.
//! let a = Matrix::from_rows(&[&[0.90, 0.05], &[0.04, 0.91]]).unwrap();
//! let b = Matrix::from_rows(&[&[0.8], &[0.3]]).unwrap();
//! let model = DiscreteThermalModel::new(a, b, 0.1)?;
//! let next = model.step(
//!     &Vector::from_slice(&[50.0, 48.0]),
//!     &Vector::from_slice(&[2.0]),
//! )?;
//! assert!(next[0] > 46.0 && next[0] < 52.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod network;
pub mod state_space;

pub use error::ThermalError;
pub use network::{
    BatchStepTransition, ExynosThermalNetwork, FanBoost, NodeId, RkScratch, StepTransition,
    ThermalNetwork, ThermalNetworkBuilder,
};
pub use state_space::{DiscreteThermalModel, HorizonMap};
