//! The monitoring frame: one engine for every frame-streaming link.
//!
//! The adaptation loop of the paper periodically sends known pilot
//! symbols (§II-C). A [`FrameEngine`] owns one link's transmitter and
//! channel: [`FrameEngine::generate`] draws a pilot prefix and a
//! payload (uniform symbols, or a rate-1/2 convolutional codeword under
//! [`Monitor::Ecc`]) from the link's private RNG stream, maps them and
//! plays the frame through a scripted [`TrajectoryChannel`]. Once the
//! caller has demapped the received block,
//! [`FrameEngine::count_errors`] compares the LLR signs with the
//! transmitted bits — pilot prefix and payload separately, with no hard
//! decision pass — and [`FrameEngine::ecc_corrected`] soft-decodes the
//! payload codeword.
//!
//! `hybridem-core`'s online link and its link-server sessions both
//! stream through this engine, so for one seed, trajectory and frame
//! geometry they transmit and count the same frames. Buffers are sized
//! at construction: a pilot-monitored frame allocates nothing (under
//! ECC monitoring the encoder and the Viterbi decoder allocate).

use crate::bits::pack_bits;
use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::ecc::{ConvCode, Viterbi};
use crate::trajectory::{Trajectory, TrajectoryChannel};
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::rng::{Rng64, Xoshiro256pp};

/// Which degradation evidence a link monitors (paper §II-C proposes
/// both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monitor {
    /// Pilot-BER monitoring: the known pilot prefix of every frame is
    /// compared against its hard decisions.
    Pilot,
    /// ECC monitoring: the payload carries a rate-1/2 convolutional
    /// codeword and the Viterbi decoder's corrected-flip count is the
    /// quality metric (no pilot overhead needed for detection).
    Ecc,
}

/// Bit errors of one frame, counted from LLR signs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameErrors {
    /// Errors over the pilot prefix.
    pub pilot: u64,
    /// Errors over the payload (raw demapped decisions, before ECC).
    pub payload: u64,
}

/// One link's frame source and channel. See the module docs.
pub struct FrameEngine {
    bits_per_symbol: usize,
    pilot_symbols: usize,
    monitor: Monitor,
    rng: Xoshiro256pp,
    channel: TrajectoryChannel,
    tx_syms: Vec<usize>,
    tx_bits: Vec<u8>,
    block: Vec<C32>,
    info: Vec<u8>,
}

impl FrameEngine {
    /// Engine for frames of `frame_symbols` symbols of
    /// `bits_per_symbol` bits, the first `pilot_symbols` of them
    /// pilots. Frames draw from `Xoshiro256pp::stream(seed, 0)` and
    /// play through `trajectory`, which holds its final state past the
    /// end of the script.
    ///
    /// # Panics
    /// Panics on an empty frame, more pilots than symbols, more than
    /// 16 bits per symbol, or (under [`Monitor::Ecc`]) a payload
    /// capacity that is odd or not above the code's tail.
    pub fn new(
        trajectory: Trajectory,
        seed: u64,
        frame_symbols: usize,
        pilot_symbols: usize,
        monitor: Monitor,
        bits_per_symbol: usize,
    ) -> Self {
        let (n, m) = (frame_symbols, bits_per_symbol);
        assert!(n > 0, "frame length must be positive");
        assert!(pilot_symbols <= n, "pilots cannot exceed the frame");
        assert!(m <= 16, "bits per symbol > 16 unsupported");
        let payload_bits = (n - pilot_symbols) * m;
        let info_len = if monitor == Monitor::Ecc {
            assert!(
                payload_bits.is_multiple_of(2) && payload_bits / 2 > ConvCode::TAIL,
                "ECC monitoring needs an even payload capacity above the tail"
            );
            payload_bits / 2 - ConvCode::TAIL
        } else {
            0
        };
        Self {
            bits_per_symbol: m,
            pilot_symbols,
            monitor,
            rng: Xoshiro256pp::stream(seed, 0),
            channel: TrajectoryChannel::new(trajectory, n),
            tx_syms: vec![0; n],
            tx_bits: vec![0; n * m],
            block: vec![C32::zero(); n],
            info: vec![0; info_len],
        }
    }

    /// Builds the next frame into [`FrameEngine::block`]: the pilot
    /// prefix, then the payload (uniform symbols, or the codeword of
    /// freshly drawn information bits), mapped through `constellation`
    /// and played through the channel.
    pub fn generate(&mut self, constellation: &Constellation) {
        let m = self.bits_per_symbol;
        debug_assert_eq!(constellation.bits_per_symbol(), m);
        let (pilots, payload) = self.tx_syms.split_at_mut(self.pilot_symbols);
        for s in pilots {
            *s = (self.rng.next_u64() >> (64 - m)) as usize;
        }
        if self.monitor == Monitor::Ecc {
            self.rng.fill_bits(&mut self.info);
            let coded = ConvCode::new().encode(&self.info);
            for (s, chunk) in payload.iter_mut().zip(coded.chunks(m)) {
                *s = pack_bits(chunk);
            }
        } else {
            for s in payload {
                *s = (self.rng.next_u64() >> (64 - m)) as usize;
            }
        }
        for ((&u, y), bits) in self
            .tx_syms
            .iter()
            .zip(&mut self.block)
            .zip(self.tx_bits.chunks_exact_mut(m))
        {
            *y = constellation.point(u);
            for (k, b) in bits.iter_mut().enumerate() {
                *b = constellation.bit(u, k);
            }
        }
        self.channel.transmit(&mut self.block, &mut self.rng);
    }

    /// Counts the frame's bit errors from the signs of `llrs` (one per
    /// transmitted bit; workspace convention: negative ⇒ bit 1).
    pub fn count_errors(&self, llrs: &[f32]) -> FrameErrors {
        debug_assert_eq!(llrs.len(), self.tx_bits.len());
        let split = self.pilot_bits();
        // A branch-free `u32` sum, so the comparison vectorizes at the
        // width of the LLRs (a frame's bit buffer is far below 2^32).
        let count = |tx: &[u8], llrs: &[f32]| {
            tx.iter()
                .zip(llrs)
                .map(|(&b, &l)| u32::from(u8::from(l < 0.0) != b))
                .sum::<u32>() as u64
        };
        FrameErrors {
            pilot: count(&self.tx_bits[..split], &llrs[..split]),
            payload: count(&self.tx_bits[split..], &llrs[split..]),
        }
    }

    /// Soft-decodes the payload codeword from the frame's `llrs` and
    /// returns how many channel bits the Viterbi decoder corrected —
    /// the paper's ECC retrain evidence. 0 under [`Monitor::Pilot`],
    /// whose payload carries no codeword.
    pub fn ecc_corrected(&self, llrs: &[f32]) -> u64 {
        if self.monitor == Monitor::Pilot {
            return 0;
        }
        let payload = &llrs[self.pilot_bits()..];
        Viterbi::new()
            .decode_soft(&ConvCode::new(), payload)
            .corrected
    }

    /// Symbols per frame.
    pub fn frame_symbols(&self) -> usize {
        self.block.len()
    }

    /// Pilot bits per frame.
    pub fn pilot_bits(&self) -> usize {
        self.pilot_symbols * self.bits_per_symbol
    }

    /// Payload bits per frame.
    pub fn payload_bits(&self) -> usize {
        self.tx_bits.len() - self.pilot_bits()
    }

    /// The current frame's transmitted symbol indices (pilots first).
    pub fn tx_symbols(&self) -> &[usize] {
        &self.tx_syms
    }

    /// The current frame's transmitted bits, MSB first per symbol.
    pub fn tx_bits(&self) -> &[u8] {
        &self.tx_bits
    }

    /// The current frame as received (channel output).
    pub fn block(&self) -> &[C32] {
        &self.block
    }

    /// Mutable received frame, for receivers that equalize in place.
    pub fn block_mut(&mut self) -> &mut [C32] {
        &mut self.block
    }

    /// The playback channel (frame position, current state).
    pub fn channel(&self) -> &TrajectoryChannel {
        &self.channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demapper::{Demapper, MaxLogMap};
    use crate::trajectory::ChannelState;

    fn noiseless_engine(monitor: Monitor, seed: u64) -> FrameEngine {
        let traj = Trajectory::constant("t", ChannelState::clean(f64::INFINITY), 4);
        FrameEngine::new(traj, seed, 32, 8, monitor, 4)
    }

    fn demap(engine: &FrameEngine, qam: &Constellation) -> Vec<f32> {
        let mut llrs = vec![0.0; engine.frame_symbols() * 4];
        MaxLogMap::new(qam.clone(), 0.1).demap_block(engine.block(), &mut llrs);
        llrs
    }

    #[test]
    fn noiseless_frames_count_no_errors() {
        let qam = Constellation::qam_gray(16);
        for monitor in [Monitor::Pilot, Monitor::Ecc] {
            let mut e = noiseless_engine(monitor, 3);
            assert_eq!((e.pilot_bits(), e.payload_bits()), (32, 96));
            e.generate(&qam);
            let llrs = demap(&e, &qam);
            assert_eq!(e.count_errors(&llrs), FrameErrors::default());
            assert_eq!(e.ecc_corrected(&llrs), 0);
        }
    }

    #[test]
    fn errors_are_counted_from_llr_signs_per_section() {
        let qam = Constellation::qam_gray(16);
        let mut e = noiseless_engine(Monitor::Pilot, 5);
        e.generate(&qam);
        let mut llrs = demap(&e, &qam);
        for i in [0, 31, 32, 100, 127] {
            llrs[i] = -llrs[i];
        }
        let errors = e.count_errors(&llrs);
        assert_eq!((errors.pilot, errors.payload), (2, 3));
        // An exact-zero LLR decides bit 0.
        llrs[5] = 0.0;
        let sent = u64::from(e.tx_bits()[5]);
        assert_eq!(e.count_errors(&llrs).pilot, 2 + sent);
    }

    #[test]
    #[should_panic(expected = "pilots cannot exceed")]
    fn oversized_pilot_prefix_rejected() {
        let traj = Trajectory::constant("t", ChannelState::clean(10.0), 1);
        let _ = FrameEngine::new(traj, 0, 8, 9, Monitor::Pilot, 4);
    }

    #[test]
    #[should_panic(expected = "even payload capacity")]
    fn ecc_without_room_for_the_codeword_rejected() {
        let traj = Trajectory::constant("t", ChannelState::clean(10.0), 1);
        let _ = FrameEngine::new(traj, 0, 8, 7, Monitor::Ecc, 4);
    }
}
