package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Per-recipient round slicing: the one form in which a round reaches a
// recipient. The full ModeGroup wire carries every recipient's key wrap,
// so fanning it out to N members would cost O(N²) wire bytes across a
// round; each member gets its own ModeSlice wire instead — only that
// recipient's RSA-OAEP wrap, the shared ciphertext, and an O(log N)
// inclusion proof. A sender fanning out directly cuts the slices itself
// (SecureMsgPeerGroup); one that uses the relay uploads the full wire
// ONCE and the broker re-cuts it (SliceRound). The relay never sees
// plaintext or keys: the header (and the signature over it) stays inside
// the ciphertext, and slicing is pure byte surgery.
//
// Binding. A slice omits the other recipients' wraps, so the signed
// header carries a binding a single leaf can check, SliceRoot: the root
// of a Merkle tree whose leaf i commits to (i, fingerprint_i,
// SHA-256(wrap_i)). Each slice carries its leaf index and sibling path,
// so the recipient recomputes the root from its OWN materials alone and
// compares against the signed value. A relay (or a malicious round
// member) that re-targets a slice to a non-recipient, swaps wraps
// between recipients, or reorders leaves produces a root that does not
// match the signature — ErrRoundBinding — before the header signature
// can vouch for anything. Replayed slices, and slices re-sealed behind
// an honest leaf by a member holding the round's content key, die on the
// signed single-use round nonce.
//
// Slice wire layout (mode byte ModeSlice, then):
//
//	u32 recipient count | u32 leaf index
//	32-byte recipient key fingerprint
//	u32 wrap length | RSA-OAEP wrapped CEK
//	u8 proof length | proof hashes (32 bytes each, leaf upward)
//	u32 nonce length | AES-GCM nonce
//	AES-GCM ciphertext of ( u32 header length | header XML | raw body )

// sliceRootName is the signed header element carrying the Merkle root.
const sliceRootName = "SliceRoot"

// maxSliceProofLen bounds the inclusion proof parsed from the wire:
// ceil(log2(maxRoundRecipients)) = 12, with headroom.
const maxSliceProofLen = 16

// sliceLeaf commits one recipient position to the tree: the index (so
// leaves cannot be reordered), the key fingerprint (who) and the wrap
// digest (which key material).
func sliceLeaf(index uint32, fp [32]byte, wrap []byte) []byte {
	buf := make([]byte, 0, 1+4+32+32)
	buf = append(buf, 0x00)
	buf = binary.BigEndian.AppendUint32(buf, index)
	buf = append(buf, fp[:]...)
	buf = append(buf, keys.SHA256(wrap)...)
	return keys.SHA256(buf)
}

// sliceParent combines two tree nodes. The domain-separation prefixes
// (0x00 leaf, 0x01 interior) stop a leaf from being replayed as an
// interior node and vice versa.
func sliceParent(left, right []byte) []byte {
	buf := make([]byte, 0, 1+64)
	buf = append(buf, 0x01)
	buf = append(buf, left...)
	buf = append(buf, right...)
	return keys.SHA256(buf)
}

// sliceLevels builds the whole tree bottom-up; levels[0] are the leaves,
// the last level is the single root. An unpaired last node is promoted
// unchanged (never duplicated, so no two recipient sets share a root).
func sliceLevels(fps [][32]byte, wraps [][]byte) [][][]byte {
	level := make([][]byte, len(fps))
	for i := range fps {
		level[i] = sliceLeaf(uint32(i), fps[i], wraps[i])
	}
	levels := [][][]byte{level}
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for j := 0; j+1 < len(level); j += 2 {
			next = append(next, sliceParent(level[j], level[j+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// sliceProof extracts the sibling path for leaf i.
func sliceProof(levels [][][]byte, i int) [][]byte {
	var proof [][]byte
	for l := 0; l < len(levels)-1; l++ {
		j := (i >> l) ^ 1
		if j < len(levels[l]) {
			proof = append(proof, levels[l][j])
		}
	}
	return proof
}

// verifySliceProof recomputes the root from one leaf and its sibling
// path. It returns false when the proof shape does not match the
// declared recipient count — a truncated or padded proof never reaches
// the root comparison.
func verifySliceProof(n int, index uint32, fp [32]byte, wrap []byte, proof [][]byte) ([]byte, bool) {
	node := sliceLeaf(index, fp, wrap)
	width, j, p := n, int(index), 0
	for width > 1 {
		if sib := j ^ 1; sib < width {
			if p >= len(proof) {
				return nil, false
			}
			if j&1 == 0 {
				node = sliceParent(node, proof[p])
			} else {
				node = sliceParent(proof[p], node)
			}
			p++
		}
		j >>= 1
		width = (width + 1) / 2
	}
	if p != len(proof) {
		return nil, false
	}
	return node, true
}

// DetachedRound is one sealed fan-out round held in sliceable form: the
// shared ciphertext plus the per-recipient wraps, before assembly into
// either the full ModeGroup wire (the relay upload) or per-recipient
// ModeSlice wires.
type DetachedRound struct {
	fps      [][32]byte
	wraps    [][]byte
	gcmNonce []byte
	ct       []byte
	levels   [][][]byte // Merkle tree, built lazily on first Slice/Slices
}

// SealGroupDetached seals one fan-out round — one header signature, one
// content encryption, one wrap per recipient — and returns it in
// detached form so the caller can choose the assembly: Wire for the
// relay upload, Slice/Slices for per-recipient delivery. The signed time
// is the wall's: a peer seals through sealRound, at its own.
func SealGroupDetached(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey) (*DetachedRound, error) {
	return sealRound(signer, sender, group, body, recipients, time.Now())
}

// sealRound is SealGroupDetached at the sender's time now.
func sealRound(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey, now time.Time) (*DetachedRound, error) {
	if signer == nil {
		return nil, errors.New("core: group round requires a signing key")
	}
	if len(recipients) == 0 {
		return nil, errors.New("core: group round requires at least one recipient")
	}
	if len(recipients) > maxRoundRecipients {
		return nil, fmt.Errorf("core: group round exceeds %d recipients", maxRoundRecipients)
	}
	fps := make([][32]byte, len(recipients))
	for i, r := range recipients {
		fp, err := r.Fingerprint()
		if err != nil {
			return nil, err
		}
		fps[i] = fp
	}
	nonce, err := keys.RandomBytes(roundNonceSize)
	if err != nil {
		return nil, err
	}

	// The content key and wraps come first: the signed header commits to
	// them through the slice tree root.
	cek, err := keys.NewContentKey()
	if err != nil {
		return nil, err
	}
	wraps := make([][]byte, len(recipients))
	for i, r := range recipients {
		w, err := r.WrapKey(cek)
		if err != nil {
			return nil, err
		}
		wraps[i] = w
	}
	levels := sliceLevels(fps, wraps)
	root := levels[len(levels)-1][0]

	// The round header: one timestamp + nonce + group + body digest +
	// the slice tree root, signed once.
	header := xmldoc.New(roundHeaderName, "")
	header.AddText("Sender", string(sender))
	header.AddText("Group", group)
	header.AddText("BodyDigest", base64.StdEncoding.EncodeToString(keys.SHA256(body)))
	header.AddText("Time", signedTime(now))
	header.AddText("Nonce", base64.StdEncoding.EncodeToString(nonce))
	header.AddText(sliceRootName, base64.StdEncoding.EncodeToString(root))
	sig, err := signer.Sign(header.Canonical())
	if err != nil {
		return nil, err
	}
	header.AddText("Signature", base64.StdEncoding.EncodeToString(sig))

	gcmNonce, err := keys.RandomBytes(keys.AEADNonceSize)
	if err != nil {
		return nil, err
	}
	h := header.Canonical()
	ct, err := keys.AEADSealInPlace(cek, gcmNonce, packBlock(make([]byte, 0, sealedLen(h, body)), h, body), 0)
	if err != nil {
		return nil, err
	}
	return &DetachedRound{fps: fps, wraps: wraps, gcmNonce: gcmNonce, ct: ct, levels: levels}, nil
}

// Recipients reports how many recipients the round addresses.
func (d *DetachedRound) Recipients() int { return len(d.fps) }

// Wire assembles the full ModeGroup wire — the layout documented in
// round.go: the relayRound upload, which no recipient opens.
func (d *DetachedRound) Wire() []byte {
	wireLen := 1 + 4 + 4 + len(d.gcmNonce) + len(d.ct)
	for _, w := range d.wraps {
		wireLen += 32 + 4 + len(w)
	}
	wire := make([]byte, 0, wireLen)
	wire = append(wire, byte(ModeGroup))
	wire = binary.BigEndian.AppendUint32(wire, uint32(len(d.wraps)))
	for i := range d.wraps {
		wire = keys.AppendSection(append(wire, d.fps[i][:]...), d.wraps[i])
	}
	return append(keys.AppendSection(wire, d.gcmNonce), d.ct...)
}

// Slices cuts the round into one ModeSlice wire per recipient, in
// recipient order. Slicing is deterministic byte surgery over public
// material — no keys, no plaintext — which is what lets an untrusted
// relay perform it.
func (d *DetachedRound) Slices() [][]byte {
	out := make([][]byte, len(d.fps))
	for i := range d.fps {
		out[i] = d.Slice(i)
	}
	return out
}

// Slice cuts recipient i's ModeSlice wire alone. The relay path filters
// recipients (unknown, non-resident, self) before cutting, and each
// slice carries its own copy of the shared ciphertext — cutting only
// accepted recipients skips that allocation for the rest. The Merkle
// tree is built once and cached; DetachedRound is not safe for
// concurrent use.
func (d *DetachedRound) Slice(i int) []byte {
	if d.levels == nil {
		d.levels = sliceLevels(d.fps, d.wraps)
	}
	return d.slice(i, sliceProof(d.levels, i))
}

func (d *DetachedRound) slice(i int, proof [][]byte) []byte {
	wireLen := 1 + 4 + 4 + 32 + 4 + len(d.wraps[i]) + 1 + 32*len(proof) + 4 + len(d.gcmNonce) + len(d.ct)
	wire := make([]byte, 0, wireLen)
	wire = append(wire, byte(ModeSlice))
	wire = binary.BigEndian.AppendUint32(wire, uint32(len(d.fps)))
	wire = binary.BigEndian.AppendUint32(wire, uint32(i))
	wire = keys.AppendSection(append(wire, d.fps[i][:]...), d.wraps[i])
	wire = append(wire, byte(len(proof)))
	for _, h := range proof {
		wire = append(wire, h...)
	}
	return append(keys.AppendSection(wire, d.gcmNonce), d.ct...)
}

// SliceRound parses a full ModeGroup wire back into sliceable form — the
// relay-side entry point: a broker that received one uploaded round can
// re-cut it per recipient without holding any key material.
func SliceRound(wire []byte) (*DetachedRound, error) {
	if len(wire) < 2 || Mode(wire[0]) != ModeGroup {
		return nil, ErrEnvelope
	}
	return parseRoundWire(wire[1:])
}

// parsedSlice is the wire-level view of one ModeSlice payload.
type parsedSlice struct {
	n        int
	index    uint32
	fp       [32]byte
	wrap     []byte
	proof    [][]byte
	gcmNonce []byte
	ct       []byte
}

func parseSliceWire(payload []byte) (*parsedSlice, error) {
	if len(payload) < 8+32 {
		return nil, ErrEnvelope
	}
	ps := &parsedSlice{}
	n := binary.BigEndian.Uint32(payload[:4])
	ps.index = binary.BigEndian.Uint32(payload[4:8])
	if n == 0 || n > maxRoundRecipients || ps.index >= n {
		return nil, ErrEnvelope
	}
	ps.n = int(n)
	copy(ps.fp[:], payload[8:])
	var ok bool
	if ps.wrap, payload, ok = keys.CutSection(payload[8+32:]); !ok || len(payload) < 1 {
		return nil, ErrEnvelope
	}
	pl := int(payload[0])
	payload = payload[1:]
	if pl > maxSliceProofLen || len(payload) < 32*pl {
		return nil, ErrEnvelope
	}
	ps.proof = make([][]byte, pl)
	for i := 0; i < pl; i++ {
		ps.proof[i] = payload[:32:32]
		payload = payload[32:]
	}
	if ps.gcmNonce, ps.ct, ok = keys.CutSection(payload); !ok || len(ps.gcmNonce) > 64 {
		return nil, ErrEnvelope
	}
	return ps, nil
}

// OpenSlice decrypts and parses one per-recipient round slice (the
// pipeline in open.go). Beyond the checks Open performs it enforces the
// round semantics: the Merkle path from this slice's (index,
// fingerprint, wrap) leaf must reach the signed SliceRoot, so a slice
// re-cut for a different recipient set — or with swapped wraps or
// reordered leaves — fails ErrRoundBinding no matter who relayed it;
// and, when a ReplayGuard is supplied, the wire and the signed round
// nonce must both be fresh (single use within the guard's window). The
// header signature itself is deferred to VerifySignature, exactly as in
// the unicast path. A full round wire is refused (ErrEnvelope).
func OpenSlice(own *keys.KeyPair, wire []byte, guard *ReplayGuard) (*Opened, error) {
	return openCopy(own, wire, formSlice, guard)
}
