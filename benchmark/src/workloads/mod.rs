//! The four workloads. Each is set up from the run seed alone and
//! checks every operation's output against an oracle the program does
//! not compute on the measured path.

pub mod attack;
pub mod campaign;
pub mod play;
pub mod stream;

use wideleak::ott::content::{synth_samples, TrackSelector, SEGMENTS_PER_REP};

use crate::{BenchError, Workload, WorkloadKind};

/// Sets a workload up from the run seed.
///
/// # Errors
///
/// The workload's fixtures could not be built (a refused license, a
/// missing worker binary, ...).
pub fn set_up(kind: WorkloadKind, seed: u64) -> Result<Box<dyn Workload>, BenchError> {
    Ok(match kind {
        WorkloadKind::Play => Box::new(play::Play::set_up(seed)?),
        WorkloadKind::Stream => Box::new(stream::Stream::set_up(seed)?),
        WorkloadKind::Attack => Box::new(attack::Attack::set_up(seed)?),
        WorkloadKind::Campaign => Box::new(campaign::Campaign::set_up(seed)?),
    })
}

/// The plaintext samples of every segment of one packaged track, in
/// play order: the oracle for decrypted and recovered media.
pub(crate) fn plaintext_track(app: &str, title: &str, track: &TrackSelector) -> Vec<Vec<u8>> {
    (1..=SEGMENTS_PER_REP).flat_map(|seg| synth_samples(app, title, track, seg)).collect()
}

/// Maps any displayable set-up failure into [`BenchError::Setup`].
pub(crate) fn setup_err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> BenchError {
    move |e| BenchError::Setup(format!("{context}: {e}"))
}
