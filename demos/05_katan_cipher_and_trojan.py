"""
KATAN-32 and a two-bit ciphertext Trojan
========================================

KATAN-32 is an 80-bit-key block cipher built from two short nonlinear shift
registers clocked for 254 rounds. This script checks the published test
vectors, looks at diffusion, then inserts a conditional payload that flips
the first and last ciphertext bits when rare parity conditions on the key
and plaintext coincide.
"""

import numpy as np

from mtjbist import (
    KatanCircuit,
    decrypt32,
    encrypt32,
    encrypt32_batch,
    katan_trigger,
    toggle_profile,
)
from mtjbist.trojan import PAYLOAD_MASK_32, TrojanSpec, encrypt32_trojan

# published single-block test vectors
ct1 = encrypt32(0x00000000, (1 << 80) - 1)
ct2 = encrypt32(0xFFFFFFFF, 0)
print(f"enc(00000000, key=all ones) = {ct1:08x}   (expect 7e1ff945)")
print(f"enc(ffffffff, key=all zeros) = {ct2:08x}   (expect 432e61da)")
print(f"decryption inverts: {decrypt32(ct1, (1 << 80) - 1):08x}\n")

# diffusion: flipping one plaintext bit flips about half the ciphertext
rng = np.random.default_rng(11)
key = int.from_bytes(rng.bytes(10), "big")
pts = rng.integers(0, 1 << 32, 200, dtype=np.uint64)
flipped = pts ^ np.uint64(1)
diff = encrypt32_batch(pts, key) ^ encrypt32_batch(flipped, key)
avalanche = np.mean([int(d).bit_count() for d in diff])
print(f"avalanche over 200 blocks: {avalanche:.1f} of 32 ciphertext bits flip")

# the cipher's switching activity, used elsewhere for current traces
profile = toggle_profile(KatanCircuit(key), 0xA5A5A5A5)
print(f"round toggle profile: {profile.shape[0]} rounds,"
      f" mean {profile.mean():.1f} toggles, max {profile.max()}\n")

# the Trojan: AND of key-byte parity and plaintext-byte parity; a quarter of
# (key, plaintext) pairs overall, half of plaintexts once a key satisfies
# its half of the condition
spec = TrojanSpec()
device_key = 0x9E3779B97F4A7C15F39D
hits = sum(katan_trigger(int(p), device_key, spec) for p in range(4096))
print(f"trigger rate under this key, over 4096 plaintexts:"
      f" {hits}/4096 = {hits / 4096:.3f}")

triggering = next(p for p in range(1 << 32) if katan_trigger(p, device_key, spec))
clean = encrypt32(triggering, device_key)
bad = encrypt32_trojan(triggering, device_key, spec)
print(f"\ntriggering plaintext {triggering:08x}:")
print(f"  clean ciphertext    {clean:08x}")
print(f"  infected ciphertext {bad:08x}   (xor {clean ^ bad:08x} = payload mask {PAYLOAD_MASK_32:08x})")
print(f"  receiver decrypts to {decrypt32(bad, device_key):08x}, not {triggering:08x}")

dormant = next(p for p in range(1 << 32) if not katan_trigger(p, device_key, spec))
print(f"dormant plaintext {dormant:08x}: infected output matches clean ="
      f" {encrypt32_trojan(dormant, device_key, spec) == encrypt32(dormant, device_key)}")
