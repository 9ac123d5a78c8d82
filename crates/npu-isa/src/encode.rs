//! Binary encoding of the `setpm` instruction (paper Figure 14).
//!
//! The instruction is encoded into a 32-bit miscellaneous-slot word:
//!
//! ```text
//!  31        24 23        16 15    13 12  11 10          3 2      0
//! +------------+------------+--------+------+-------------+--------+
//! | operand A  | operand B  | fu_type| mode |  bitmap[7:0]| variant|
//! +------------+------------+--------+------+-------------+--------+
//! ```
//!
//! * variant 0: SRAM range — operands A/B are the start/end scalar registers.
//! * variant 1: FU bitmap from register — operand A is the bitmap register.
//! * variant 2: FU bitmap immediate — bitmap field holds the immediate.
//!
//! The exact field widths of a production NPU depend on its specification
//! (the paper assumes an 8-bit bitmap for a chip with 8 SAs and 8 VUs); the
//! encoder below checks that immediates fit the 8-bit field.

use serde::{Deserialize, Serialize};

use crate::power::{FuBitmap, FunctionalUnitType, PowerMode};
use crate::setpm::{ScalarReg, SetPm};

/// A `setpm` instruction encoded into a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EncodedSetPm(pub u32);

/// Errors produced while encoding or decoding a `setpm`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The variant field holds an unknown value.
    UnknownVariant(u8),
    /// The functional-unit type field holds an unknown value.
    UnknownFuType(u8),
    /// The bitmap immediate does not fit in the 8-bit encoding field.
    BitmapTooWide(u32),
    /// The functional-unit type does not match the variant: the SRAM-range
    /// variant addresses only SRAM, and the bitmap variants never do.
    FuTypeMismatch(FunctionalUnitType),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownVariant(v) => write!(f, "unknown setpm variant {v}"),
            DecodeError::UnknownFuType(v) => write!(f, "unknown functional unit type {v}"),
            DecodeError::BitmapTooWide(bits) => {
                write!(f, "bitmap {bits:#b} does not fit the 8-bit immediate field")
            }
            DecodeError::FuTypeMismatch(fu) => {
                write!(f, "functional unit type {fu} does not match the setpm variant")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const VARIANT_SRAM: u32 = 0;
const VARIANT_FU_REG: u32 = 1;
const VARIANT_FU_IMM: u32 = 2;

/// Only the SRAM-range variant addresses SRAM, and it addresses nothing else.
fn check_fu_type(pm: &SetPm, fu_type: FunctionalUnitType) -> Result<(), DecodeError> {
    let sram_variant = matches!(pm, SetPm::SramRange { .. });
    if sram_variant == (fu_type == FunctionalUnitType::Sram) {
        Ok(())
    } else {
        Err(DecodeError::FuTypeMismatch(fu_type))
    }
}

/// Encodes a `setpm` into its 32-bit miscellaneous-slot word.
///
/// The SRAM variant encodes only the register operands (the resolved
/// addresses live in the registers at run time), so decoding an SRAM-range
/// `setpm` yields a range of `[0, 0)` — the address resolution is a
/// compiler/simulator concern, not an encoding concern.
///
/// # Errors
///
/// Returns [`DecodeError::BitmapTooWide`] if an immediate bitmap does not
/// fit the 8-bit field, and [`DecodeError::FuTypeMismatch`] if a bitmap
/// variant names SRAM.
pub fn encode_setpm(pm: &SetPm) -> Result<EncodedSetPm, DecodeError> {
    check_fu_type(pm, pm.fu_type())?;
    let word = match *pm {
        SetPm::SramRange { start_reg, end_reg, mode, .. } => {
            (u32::from(start_reg.0) << 24)
                | (u32::from(end_reg.0) << 16)
                | (u32::from(FunctionalUnitType::Sram.encode()) << 13)
                | (u32::from(mode.encode()) << 11)
                | VARIANT_SRAM
        }
        SetPm::FuRegister { bitmap_reg, fu_type, mode, .. } => {
            (u32::from(bitmap_reg.0) << 24)
                | (u32::from(fu_type.encode()) << 13)
                | (u32::from(mode.encode()) << 11)
                | VARIANT_FU_REG
        }
        SetPm::FuImmediate { bitmap, fu_type, mode } => {
            if bitmap.bits() > 0xFF {
                return Err(DecodeError::BitmapTooWide(bitmap.bits()));
            }
            (bitmap.bits() << 3)
                | (u32::from(fu_type.encode()) << 13)
                | (u32::from(mode.encode()) << 11)
                | VARIANT_FU_IMM
        }
    };
    Ok(EncodedSetPm(word))
}

/// Decodes a 32-bit miscellaneous-slot word back into a `setpm`.
///
/// # Errors
///
/// Returns an error if the variant or functional-unit type field is
/// invalid, or if the type does not match the variant.
///
/// # Panics
///
/// Never: the power-mode field is masked to two bits and all four values
/// decode.
pub fn decode_setpm(word: EncodedSetPm) -> Result<SetPm, DecodeError> {
    let w = word.0;
    let variant = w & 0b111;
    let mode = PowerMode::decode(((w >> 11) & 0b11) as u8).expect("2-bit mode always decodes");
    let fu_bits = ((w >> 13) & 0b111) as u8;
    let fu_type = FunctionalUnitType::decode(fu_bits).ok_or(DecodeError::UnknownFuType(fu_bits))?;
    let pm = match variant {
        VARIANT_SRAM => SetPm::SramRange {
            start_reg: ScalarReg(((w >> 24) & 0xFF) as u8),
            end_reg: ScalarReg(((w >> 16) & 0xFF) as u8),
            start_addr: 0,
            end_addr: 0,
            mode,
        },
        VARIANT_FU_REG => SetPm::FuRegister {
            bitmap_reg: ScalarReg(((w >> 24) & 0xFF) as u8),
            bitmap: FuBitmap::empty(),
            fu_type,
            mode,
        },
        VARIANT_FU_IMM => {
            SetPm::FuImmediate { bitmap: FuBitmap::from_bits((w >> 3) & 0xFF), fu_type, mode }
        }
        other => return Err(DecodeError::UnknownVariant(other as u8)),
    };
    check_fu_type(&pm, fu_type)?;
    Ok(pm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_roundtrip() {
        let pm = SetPm::functional_units(
            FuBitmap::from_bits(0b1011),
            FunctionalUnitType::Vu,
            PowerMode::Off,
        );
        let enc = encode_setpm(&pm).unwrap();
        let dec = decode_setpm(enc).unwrap();
        assert_eq!(dec, pm);
    }

    #[test]
    fn sram_variant_roundtrips_registers_and_mode() {
        let pm = SetPm::SramRange {
            start_reg: ScalarReg(3),
            end_reg: ScalarReg(4),
            start_addr: 0x1000,
            end_addr: 0x2000,
            mode: PowerMode::Sleep,
        };
        let dec = decode_setpm(encode_setpm(&pm).unwrap()).unwrap();
        match dec {
            SetPm::SramRange { start_reg, end_reg, mode, start_addr, end_addr } => {
                assert_eq!(start_reg, ScalarReg(3));
                assert_eq!(end_reg, ScalarReg(4));
                assert_eq!(mode, PowerMode::Sleep);
                // Addresses are runtime values and are not encoded.
                assert_eq!((start_addr, end_addr), (0, 0));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn register_variant_roundtrips() {
        let pm = SetPm::FuRegister {
            bitmap_reg: ScalarReg(9),
            bitmap: FuBitmap::from_bits(0b111),
            fu_type: FunctionalUnitType::Sa,
            mode: PowerMode::On,
        };
        let dec = decode_setpm(encode_setpm(&pm).unwrap()).unwrap();
        match dec {
            SetPm::FuRegister { bitmap_reg, fu_type, mode, .. } => {
                assert_eq!(bitmap_reg, ScalarReg(9));
                assert_eq!(fu_type, FunctionalUnitType::Sa);
                assert_eq!(mode, PowerMode::On);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn wide_bitmap_is_rejected() {
        let pm = SetPm::functional_units(
            FuBitmap::from_bits(0x1FF),
            FunctionalUnitType::Vu,
            PowerMode::Off,
        );
        assert_eq!(encode_setpm(&pm), Err(DecodeError::BitmapTooWide(0x1FF)));
    }

    #[test]
    fn unknown_fields_error() {
        // Craft a word with an invalid fu_type (0b111) and valid variant.
        let word = EncodedSetPm((0b111 << 13) | VARIANT_FU_IMM);
        assert!(matches!(decode_setpm(word), Err(DecodeError::UnknownFuType(0b111))));
        // Invalid variant.
        let word = EncodedSetPm(0b110);
        assert!(matches!(decode_setpm(word), Err(DecodeError::UnknownVariant(0b110))));
    }

    #[test]
    fn bitmap_variants_cannot_name_sram() {
        let imm = SetPm::functional_units(
            FuBitmap::from_bits(1),
            FunctionalUnitType::Sram,
            PowerMode::Off,
        );
        let reg = SetPm::FuRegister {
            bitmap_reg: ScalarReg(2),
            bitmap: FuBitmap::from_bits(1),
            fu_type: FunctionalUnitType::Sram,
            mode: PowerMode::Off,
        };
        for pm in [imm, reg] {
            assert_eq!(
                encode_setpm(&pm),
                Err(DecodeError::FuTypeMismatch(FunctionalUnitType::Sram))
            );
        }
    }

    #[test]
    fn decoding_rejects_variant_type_mismatches() {
        // An SRAM-range word whose type field names the vector units.
        assert_eq!(
            decode_setpm(EncodedSetPm(0x2000)),
            Err(DecodeError::FuTypeMismatch(FunctionalUnitType::Vu))
        );
        // A bitmap word whose type field names SRAM.
        let word =
            EncodedSetPm((u32::from(FunctionalUnitType::Sram.encode()) << 13) | VARIANT_FU_IMM);
        assert_eq!(decode_setpm(word), Err(DecodeError::FuTypeMismatch(FunctionalUnitType::Sram)));
    }

    #[test]
    fn error_display_messages() {
        assert!(DecodeError::UnknownVariant(5).to_string().contains("variant"));
        assert!(DecodeError::BitmapTooWide(0x100).to_string().contains("8-bit"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    // The immediate-variant domain (256 bitmaps x 5 non-SRAM FU types x 4
    // modes) is small enough to sweep exhaustively, which is strictly
    // stronger than the random sampling a property-testing framework would do.

    fn all_immediates() -> impl Iterator<Item = SetPm> {
        (0u32..=0xFF).flat_map(|bits| {
            FunctionalUnitType::ALL
                .into_iter()
                .filter(|&fu| fu != FunctionalUnitType::Sram)
                .flat_map(move |fu| {
                    (0u8..4).map(move |mode| {
                        SetPm::functional_units(
                            FuBitmap::from_bits(bits),
                            fu,
                            PowerMode::decode(mode).unwrap(),
                        )
                    })
                })
        })
    }

    #[test]
    fn immediate_setpm_roundtrips_exhaustively() {
        for pm in all_immediates() {
            let dec = decode_setpm(encode_setpm(&pm).unwrap()).unwrap();
            assert_eq!(dec, pm);
        }
    }

    #[test]
    fn encoding_is_injective_for_immediates() {
        // Injectivity over the full domain: no two distinct SetPm values may
        // share an encoding. A map from encoding to value checks every pair.
        use std::collections::HashMap;
        let mut seen: HashMap<u32, SetPm> = HashMap::new();
        for pm in all_immediates() {
            let bits = encode_setpm(&pm).unwrap().0;
            if let Some(prev) = seen.insert(bits, pm) {
                assert_eq!(prev, pm, "distinct SetPm values share encoding {bits:#010x}");
            }
        }
    }
}
