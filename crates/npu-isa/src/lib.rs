//! # npu-isa — the ReGate `setpm` power instruction
//!
//! NPUs in the TPU family execute statically scheduled VLIW instruction
//! bundles: every cycle, the in-order core issues one bundle whose slots
//! drive the systolic arrays, vector units, DMA engine, ICI, and a
//! miscellaneous slot for scalar/control operations (§2.1, §4.2 of the
//! paper). ReGate extends this ISA with the `setpm` (set power mode)
//! instruction, encoded in the miscellaneous slot, which lets the compiler
//! switch components between the `on`, `off`, `auto`, and (for SRAM)
//! `sleep` power modes.
//!
//! This crate provides:
//!
//! * the power-mode and functional-unit vocabulary ([`PowerMode`],
//!   [`FunctionalUnitType`], [`FuBitmap`]);
//! * the `setpm` instruction with its three encoding variants
//!   ([`SetPm`], Figure 14 of the paper) and a binary encoder/decoder
//!   ([`encode::encode_setpm`], [`encode::decode_setpm`]).
//!
//! ## Example
//!
//! ```
//! use npu_isa::encode::{decode_setpm, encode_setpm};
//! use npu_isa::{FuBitmap, FunctionalUnitType, PowerMode, SetPm};
//!
//! // Power off vector units 0 and 1.
//! let off = SetPm::functional_units(
//!     FuBitmap::from_indices(&[0, 1]),
//!     FunctionalUnitType::Vu,
//!     PowerMode::Off,
//! );
//! let word = encode_setpm(&off).unwrap();
//! assert_eq!(decode_setpm(word).unwrap(), off);
//! assert_eq!(off.disassemble(), "setpm 0b11, vu, off");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encode;
pub mod power;
pub mod setpm;

pub use encode::{DecodeError, EncodedSetPm};
pub use power::{FuBitmap, FunctionalUnitType, PowerMode};
pub use setpm::SetPm;
