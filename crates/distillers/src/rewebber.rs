//! The anonymous rewebber's workers (§5.1): "The rewebber's workers
//! perform encryption and decryption … Since encryption and decryption
//! of distinct pages requested by independent users is both
//! computationally intensive and highly parallelizable, this service is
//! a natural fit for our architecture."
//!
//! The transform here is a keyed XOR stream over the text (hex-encoded)
//! — a *stand-in* that exercises the same data flow and CPU cost shape,
//! **not** a cryptographic primitive. The paper's point being reproduced
//! is architectural (parallelisable per-object compute with per-user
//! keys from the profile database), not cryptographic strength.

use std::time::Duration;

use sns_sim::hash::fnv1a;
use sns_sim::rng::Pcg32;
use sns_tacc::content::{Body, ContentObject};
use sns_tacc::worker::{TaccArgs, TaccError, TaccWorker};
use sns_workload::MimeType;

use crate::cost::CostModel;

fn keystream(key: &str) -> impl Iterator<Item = u8> + '_ {
    // SplitMix-seeded byte stream from the key string.
    let mut state = fnv1a(key.as_bytes());
    std::iter::from_fn(move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        Some((z ^ (z >> 31)) as u8)
    })
}

fn xor_hex_encode(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for (b, k) in text.bytes().zip(keystream(key)) {
        let x = b ^ k;
        out.push_str(&format!("{x:02x}"));
    }
    out
}

fn xor_hex_decode(hex: &str, key: &str) -> Result<String, TaccError> {
    if !hex.len().is_multiple_of(2) {
        return Err(TaccError::Unsupported("odd ciphertext length".into()));
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for (i, k) in (0..hex.len()).step_by(2).zip(keystream(key)) {
        let b = u8::from_str_radix(&hex[i..i + 2], 16)
            .map_err(|_| TaccError::Unsupported("bad hex".into()))?;
        bytes.push(b ^ k);
    }
    String::from_utf8(bytes).map_err(|_| TaccError::Unsupported("not utf-8 plaintext".into()))
}

/// The encrypting worker.
pub struct RewebberEncrypt {
    cost: CostModel,
}

impl RewebberEncrypt {
    /// Creates the worker.
    pub fn new() -> Self {
        RewebberEncrypt {
            cost: CostModel::crypto(),
        }
    }
}

impl Default for RewebberEncrypt {
    fn default() -> Self {
        Self::new()
    }
}

impl TaccWorker for RewebberEncrypt {
    fn name(&self) -> &'static str {
        "rewebber-enc"
    }

    fn accepts(&self, _mime: MimeType) -> bool {
        true
    }

    fn cost(&self, input: &ContentObject, _args: &TaccArgs, rng: &mut Pcg32) -> Duration {
        self.cost.sample(input.len(), rng)
    }

    fn transform(
        &mut self,
        input: &ContentObject,
        args: &TaccArgs,
        _rng: &mut Pcg32,
    ) -> Result<ContentObject, TaccError> {
        let key = args.get("key").unwrap_or("default-key");
        let mut out = input.clone();
        match &input.body {
            Body::Text(t) => {
                out.body = Body::Text(xor_hex_encode(t, key));
                out.mime = MimeType::Other;
            }
            Body::Synthetic { len, width, height } => {
                // Binary content: same length, opaque type.
                out.body = Body::Synthetic {
                    len: *len,
                    width: *width,
                    height: *height,
                };
                out.mime = MimeType::Other;
            }
        }
        out.lineage.push("rewebber-enc".into());
        out.meta
            .insert("plaintext-mime".into(), input.mime.as_str().into());
        Ok(out)
    }
}

/// The decrypting worker.
pub struct RewebberDecrypt {
    cost: CostModel,
}

impl RewebberDecrypt {
    /// Creates the worker.
    pub fn new() -> Self {
        RewebberDecrypt {
            cost: CostModel::crypto(),
        }
    }
}

impl Default for RewebberDecrypt {
    fn default() -> Self {
        Self::new()
    }
}

impl TaccWorker for RewebberDecrypt {
    fn name(&self) -> &'static str {
        "rewebber-dec"
    }

    fn accepts(&self, mime: MimeType) -> bool {
        mime == MimeType::Other
    }

    fn cost(&self, input: &ContentObject, _args: &TaccArgs, rng: &mut Pcg32) -> Duration {
        self.cost.sample(input.len(), rng)
    }

    fn transform(
        &mut self,
        input: &ContentObject,
        args: &TaccArgs,
        _rng: &mut Pcg32,
    ) -> Result<ContentObject, TaccError> {
        let key = args.get("key").unwrap_or("default-key");
        let mut out = input.clone();
        if let Body::Text(t) = &input.body {
            out.body = Body::Text(xor_hex_decode(t, key)?);
            out.mime = MimeType::Html;
        }
        out.lineage.push("rewebber-dec".into());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(key: &str) -> TaccArgs {
        TaccArgs::from_map([("key".to_string(), key.to_string())].into_iter().collect())
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut enc = RewebberEncrypt::new();
        let mut dec = RewebberDecrypt::new();
        let mut rng = Pcg32::new(1);
        let plain = ContentObject::text("http://secret", MimeType::Html, "<p>hidden page</p>");
        let ct = enc.transform(&plain, &args("k1"), &mut rng).unwrap();
        assert_eq!(ct.mime, MimeType::Other);
        let Body::Text(cipher) = &ct.body else {
            panic!("text ct")
        };
        assert!(!cipher.contains("hidden"));
        let pt = dec.transform(&ct, &args("k1"), &mut rng).unwrap();
        let Body::Text(t) = &pt.body else {
            panic!("text pt")
        };
        assert_eq!(t, "<p>hidden page</p>");
    }

    #[test]
    fn wrong_key_does_not_recover_plaintext() {
        let mut enc = RewebberEncrypt::new();
        let mut dec = RewebberDecrypt::new();
        let mut rng = Pcg32::new(1);
        let plain = ContentObject::text("u", MimeType::Html, "<p>hidden</p>");
        let ct = enc.transform(&plain, &args("k1"), &mut rng).unwrap();
        match dec.transform(&ct, &args("k2"), &mut rng) {
            // Usually invalid UTF-8 → error; if it decodes, it must differ.
            Err(_) => {}
            Ok(pt) => {
                let Body::Text(t) = &pt.body else { panic!() };
                assert_ne!(t, "<p>hidden</p>");
            }
        }
    }

    #[test]
    fn binary_content_keeps_size() {
        let mut enc = RewebberEncrypt::new();
        let mut rng = Pcg32::new(1);
        let img = ContentObject::synthetic("u", MimeType::Jpeg, 9000);
        let ct = enc.transform(&img, &args("k"), &mut rng).unwrap();
        assert_eq!(ct.len(), 9000);
        assert_eq!(ct.meta["plaintext-mime"], "image/jpeg");
    }

    #[test]
    fn garbage_ciphertext_fails_softly() {
        let mut dec = RewebberDecrypt::new();
        let mut rng = Pcg32::new(1);
        let bad = ContentObject::text("u", MimeType::Other, "zz!");
        assert!(matches!(
            dec.transform(&bad, &args("k"), &mut rng),
            Err(TaccError::Unsupported(_))
        ));
    }
}
