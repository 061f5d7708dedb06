//! [`SnapshotMsg`] encodings for every routing-state type in this crate.
//!
//! The simulator's `fadr-snapshot/3` checkpoint format stores each
//! in-flight packet's routing state as a short run of `u64` words; these
//! impls define that encoding for the paper's algorithms and baselines.
//! All encodings are exact round trips — `decode(encode(m)) == Some(m)` —
//! and `decode` rejects slices of the wrong length so truncated or
//! corrupted snapshots fail loudly.

use fadr_qdg::SnapshotMsg;

use crate::hypercube::{CubeMsg, EcubeMsg};
use crate::mesh::MeshMsg;
use crate::mesh_kd::MeshKDMsg;
use crate::sbp::SbpMsg;
use crate::shuffle::SeMsg;
use crate::torus::TorusMsg;

#[allow(clippy::cast_possible_truncation)]
fn usize_from(word: u64) -> Option<usize> {
    usize::try_from(word).ok()
}

impl SnapshotMsg for CubeMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst] => Some(Self {
                dst: usize_from(*dst)?,
            }),
            _ => None,
        }
    }
}

impl SnapshotMsg for EcubeMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
        out.push(u64::from(self.hops));
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst, hops] => Some(Self {
                dst: usize_from(*dst)?,
                hops: u8::try_from(*hops).ok()?,
            }),
            _ => None,
        }
    }
}

impl SnapshotMsg for MeshMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst] => Some(Self {
                dst: usize_from(*dst)?,
            }),
            _ => None,
        }
    }
}

impl SnapshotMsg for MeshKDMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst] => Some(Self {
                dst: usize_from(*dst)?,
            }),
            _ => None,
        }
    }
}

impl SnapshotMsg for SbpMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
        out.push(u64::from(self.hops));
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst, hops] => Some(Self {
                dst: usize_from(*dst)?,
                hops: u8::try_from(*hops).ok()?,
            }),
            _ => None,
        }
    }
}

impl SnapshotMsg for SeMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
        out.push(u64::from(self.count));
        out.push(u64::from(self.cls));
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst, count, cls] => Some(Self {
                dst: usize_from(*dst)?,
                count: u16::try_from(*count).ok()?,
                cls: u8::try_from(*cls).ok()?,
            }),
            _ => None,
        }
    }
}

/// Sign-preserving `i8 → u64` for the torus direction fields.
fn enc_i8(v: i8) -> u64 {
    i64::from(v) as u64
}

#[allow(clippy::cast_possible_truncation)]
fn dec_i8(word: u64) -> Option<i8> {
    i8::try_from(word as i64).ok()
}

impl SnapshotMsg for TorusMsg {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.dst as u64);
        out.push(u64::from(self.rx));
        out.push(u64::from(self.ry));
        out.push(enc_i8(self.dirx));
        out.push(enc_i8(self.diry));
        out.push(u64::from(self.wplus));
        out.push(u64::from(self.wminus));
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [dst, rx, ry, dirx, diry, wplus, wminus] => Some(Self {
                dst: usize_from(*dst)?,
                rx: u8::try_from(*rx).ok()?,
                ry: u8::try_from(*ry).ok()?,
                dirx: dec_i8(*dirx)?,
                diry: dec_i8(*diry)?,
                wplus: u8::try_from(*wplus).ok()?,
                wminus: u8::try_from(*wminus).ok()?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: SnapshotMsg + Clone + PartialEq + std::fmt::Debug>(m: &M) {
        let mut words = Vec::new();
        m.encode(&mut words);
        assert_eq!(M::decode(&words).as_ref(), Some(m));
        // Wrong lengths must be rejected.
        assert!(M::decode(&words[..words.len() - 1]).is_none() || words.len() == 1);
        let mut longer = words.clone();
        longer.push(0);
        assert!(M::decode(&longer).is_none());
    }

    #[test]
    fn all_msgs_round_trip() {
        round_trip(&CubeMsg { dst: 13 });
        round_trip(&EcubeMsg { dst: 7, hops: 3 });
        round_trip(&MeshMsg { dst: 99 });
        round_trip(&MeshKDMsg { dst: 4 });
        round_trip(&SbpMsg { dst: 12, hops: 2 });
        round_trip(&SeMsg {
            dst: 5,
            count: 17,
            cls: 1,
        });
        round_trip(&TorusMsg {
            dst: 21,
            rx: 2,
            ry: 3,
            dirx: -1,
            diry: 1,
            wplus: 1,
            wminus: 2,
        });
    }

    #[test]
    fn torus_negative_directions_survive() {
        let m = TorusMsg {
            dst: 0,
            rx: 0,
            ry: 0,
            dirx: -1,
            diry: -1,
            wplus: 0,
            wminus: 0,
        };
        let mut words = Vec::new();
        m.encode(&mut words);
        let back = TorusMsg::decode(&words).unwrap();
        assert_eq!(back.dirx, -1);
        assert_eq!(back.diry, -1);
    }

    #[test]
    fn out_of_range_fields_rejected() {
        assert!(EcubeMsg::decode(&[1, 300]).is_none());
        assert!(TorusMsg::decode(&[1, 0, 0, u64::MAX / 2, 0, 0, 0]).is_none());
    }
}
