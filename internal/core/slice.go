package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
)

// Per-recipient round slicing: the one form in which a round reaches a
// recipient. The full ModeGroup wire carries every recipient's key wrap,
// so fanning it out to N members would cost O(N²) wire bytes across a
// round; each member gets its own ModeSlice wire instead — the round's
// ephemeral share, only that recipient's wrap, the shared ciphertext, and
// an O(log N) inclusion proof. A sender fanning out directly cuts the
// slices itself (SecureMsgPeerGroup); one that uses the relay uploads the
// full wire ONCE and the broker re-cuts it (SliceRound). The relay never
// sees plaintext or keys: the header (and the signature over it) stays
// inside the ciphertext, and slicing is pure byte surgery.
//
// Binding. A slice omits the other recipients' wraps, so the signed
// header carries a binding a single leaf can check, SliceRoot: the root
// of a Merkle tree whose leaf i commits to (i, fingerprint_i, E,
// SHA-256(wrap_i)). Each slice carries its leaf index and sibling path,
// so the recipient recomputes the root from its OWN materials alone and
// compares against the signed value. A relay (or a malicious round
// member) that re-targets a slice to a non-recipient, swaps wraps
// between recipients, re-wraps the content key under an ephemeral of its
// own, or reorders leaves produces a root that does not match the
// signature — ErrRoundBinding — before the header signature can vouch
// for anything. A member holding the round's content key cannot re-seal
// the round behind an honest leaf either: the leaf's wrap is bound to the
// round's AEAD nonce (keys/wrap.go), so under a fresh one it unwraps
// nothing. Replayed slices die on the signed single-use round nonce.
//
// A client wraps every round it seals within channelLifetime under one
// round key, so its slices share their ephemeral share E across rounds;
// the AEAD nonce, drawn per round before the wraps, keeps each round's
// key-encryption keys its own.
//
// Slice wire layout (mode byte ModeSlice, then):
//
//	u32 recipient count | u32 leaf index
//	32-byte ephemeral share E
//	32-byte recipient key fingerprint | 48-byte wrap
//	u8 proof length | proof hashes (32 bytes each, leaf upward)
//	12-byte AES-GCM nonce
//	AES-GCM ciphertext of ( header (header.go) | raw body )

// maxSliceProofLen bounds the inclusion proof parsed from the wire:
// ceil(log2(maxRoundRecipients)) = 12, with headroom.
const maxSliceProofLen = 16

// sliceLeaf commits one recipient position to the tree: the index (so
// leaves cannot be reordered), the key fingerprint (who), the round's
// ephemeral share and the wrap digest (which key material). entry is the
// recipient's fingerprint and wrap, as a round holds them.
func sliceLeaf(index uint32, eph *[keys.ShareSize]byte, entry []byte) [32]byte {
	var buf [1 + 4 + 32 + keys.ShareSize + sha256.Size]byte // buf[0] = 0x00, the leaf prefix
	binary.BigEndian.PutUint32(buf[1:], index)
	copy(buf[5:], entry[:32])
	copy(buf[5+32:], eph[:])
	wrap := sha256.Sum256(entry[32:])
	copy(buf[5+32+keys.ShareSize:], wrap[:])
	return sha256.Sum256(buf[:])
}

// sliceParent combines two tree nodes. The domain-separation prefixes
// (0x00 leaf, 0x01 interior) stop a leaf from being replayed as an
// interior node and vice versa.
func sliceParent(left, right *[32]byte) [32]byte {
	var buf [1 + 64]byte
	buf[0] = 0x01
	copy(buf[1:], left[:])
	copy(buf[33:], right[:])
	return sha256.Sum256(buf[:])
}

// sliceLevels builds the whole tree bottom-up; levels[0] are the leaves,
// the last level is the single root. An unpaired last node is promoted
// unchanged (never duplicated, so no two recipient sets share a root).
// Every level is a sub-slice of one array of hashes, sized by walking the
// level widths first: a tree costs that array and the slice of levels.
func (d *DetachedRound) sliceLevels() [][][32]byte {
	n := d.Recipients()
	depth, size := 1, n
	for w := n; w > 1; depth++ {
		w = (w + 1) / 2
		size += w
	}
	nodes := make([][32]byte, size)
	levels := make([][][32]byte, 0, depth)
	level := nodes[:n:n]
	for i := range level {
		level[i] = sliceLeaf(uint32(i), &d.eph, d.entry(i))
	}
	levels = append(levels, level)
	for nodes = nodes[n:]; len(level) > 1; {
		w := (len(level) + 1) / 2
		next := nodes[:w:w]
		nodes = nodes[w:]
		for j := 0; j+1 < len(level); j += 2 {
			next[j/2] = sliceParent(&level[j], &level[j+1])
		}
		if len(level)%2 == 1 {
			next[w-1] = level[len(level)-1]
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// sliceProofLen is how many hashes leaf i's proof holds in a tree of n
// leaves: one for each level where the node on its path has a sibling.
func sliceProofLen(n, i int) int {
	l := 0
	for w := n; w > 1; w = (w + 1) / 2 {
		if i^1 < w {
			l++
		}
		i >>= 1
	}
	return l
}

// appendSliceProof appends leaf i's proof as a slice carries it: its
// length in hashes, then the sibling path, leaf upward.
func appendSliceProof(wire []byte, levels [][][32]byte, i int) []byte {
	at := len(wire)
	wire = append(wire, 0)
	for l := 0; l < len(levels)-1; l++ {
		if j := (i >> l) ^ 1; j < len(levels[l]) {
			wire = append(wire, levels[l][j][:]...)
			wire[at]++
		}
	}
	return wire
}

// verifySliceProof recomputes the root from one slice's leaf and sibling
// path. It returns false when the proof shape does not match the declared
// recipient count — a truncated or padded proof never reaches the root
// comparison.
func verifySliceProof(ps *parsedSlice) ([32]byte, bool) {
	node := sliceLeaf(ps.index, (*[keys.ShareSize]byte)(ps.eph), ps.entry)
	width, j, proof := ps.n, int(ps.index), ps.proof
	for width > 1 {
		if sib := j ^ 1; sib < width {
			if len(proof) == 0 {
				return node, false
			}
			if j&1 == 0 {
				node = sliceParent(&node, (*[32]byte)(proof))
			} else {
				node = sliceParent((*[32]byte)(proof), &node)
			}
			proof = proof[32:]
		}
		j >>= 1
		width = (width + 1) / 2
	}
	return node, len(proof) == 0
}

// DetachedRound is one sealed fan-out round held in sliceable form: the
// shared ciphertext, the round's ephemeral share and the per-recipient
// entries, before assembly into either the full ModeGroup wire (the relay
// upload) or per-recipient ModeSlice wires.
type DetachedRound struct {
	eph      [keys.ShareSize]byte
	entries  []byte // roundEntry bytes per recipient, in order: key fingerprint ‖ wrap
	gcmNonce []byte
	ct       []byte
	levels   [][][32]byte // Merkle tree, built lazily on first Slice/Slices
}

// entry is recipient i's key fingerprint and wrap.
func (d *DetachedRound) entry(i int) []byte {
	return d.entries[i*roundEntry : (i+1)*roundEntry : (i+1)*roundEntry]
}

// SealGroupDetached seals one fan-out round — one header signature, one
// content encryption, one wrap per recipient — and returns it in
// detached form so the caller can choose the assembly: Wire for the
// relay upload, Slice/Slices for per-recipient delivery. The round is
// wrapped under an ephemeral key of its own, and the signed time is the
// wall's: a peer seals through sealRound, under the round key it holds
// and at its own time. Every recipient key must carry a usable agreement
// key (keys.PublicKey.CheckAgreementKey): a round is wrapped to nothing
// else.
func SealGroupDetached(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey) (*DetachedRound, error) {
	eph, err := keys.NewAgreementKey()
	if err != nil {
		return nil, err
	}
	return sealRound(signer, sender, group, body, recipients, eph, time.Now())
}

// sealRound is SealGroupDetached under the ephemeral key eph at the
// sender's time now.
func sealRound(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey, eph *keys.AgreementKey, now time.Time) (*DetachedRound, error) {
	if signer == nil {
		return nil, errors.New("core: group round requires a signing key")
	}
	if len(recipients) == 0 {
		return nil, errors.New("core: group round requires at least one recipient")
	}
	if len(recipients) > maxRoundRecipients {
		return nil, fmt.Errorf("core: group round exceeds %d recipients", maxRoundRecipients)
	}
	for _, r := range recipients {
		if err := r.CheckAgreementKey(); err != nil {
			return nil, err
		}
	}
	nonce, err := keys.RandomBytes(roundNonceSize)
	if err != nil {
		return nil, err
	}

	// The content key, the AEAD nonce and the wraps come first: each wrap
	// is bound to the nonce, and the signed header commits to the wraps
	// through the slice tree root.
	cek, err := keys.NewContentKey()
	if err != nil {
		return nil, err
	}
	d := &DetachedRound{entries: make([]byte, 0, len(recipients)*roundEntry)}
	if d.gcmNonce, err = keys.RandomBytes(keys.AEADNonceSize); err != nil {
		return nil, err
	}
	copy(d.eph[:], eph.Share())
	for _, r := range recipients {
		fp, err := r.Fingerprint()
		if err != nil {
			return nil, err
		}
		if d.entries, err = eph.WrapTo(append(d.entries, fp[:]...), cek, r, d.gcmNonce); err != nil {
			return nil, err
		}
	}
	d.levels = d.sliceLevels()
	root := d.levels[len(d.levels)-1][0]

	// The round header: one timestamp + nonce + group + body digest +
	// the slice tree root, signed once.
	digest := sha256.Sum256(body)
	h := header{kind: ModeGroup, sender: sender, group: group, at: now.UnixNano(), digest: digest[:], nonce: nonce, root: root[:]}
	block, err := appendBlock(make([]byte, 0, headerSize(&h, signer)+len(body)+keys.AEADOverhead), &h, signer, body)
	if err != nil {
		return nil, err
	}
	if d.ct, err = keys.AEADSealInPlace(cek, d.gcmNonce, block, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// Recipients reports how many recipients the round addresses.
func (d *DetachedRound) Recipients() int { return len(d.entries) / roundEntry }

// Wire assembles the full ModeGroup wire — the layout documented in
// round.go: the relayRound upload, which no recipient opens.
func (d *DetachedRound) Wire() []byte {
	wire := make([]byte, 0, 1+4+keys.ShareSize+len(d.entries)+keys.AEADNonceSize+len(d.ct))
	wire = append(wire, byte(ModeGroup))
	wire = binary.BigEndian.AppendUint32(wire, uint32(d.Recipients()))
	wire = append(append(wire, d.eph[:]...), d.entries...)
	return append(append(wire, d.gcmNonce...), d.ct...)
}

// Slices cuts the round into one ModeSlice wire per recipient, in
// recipient order. Slicing is deterministic byte surgery over public
// material — no keys, no plaintext — which is what lets an untrusted
// relay perform it.
func (d *DetachedRound) Slices() [][]byte {
	out := make([][]byte, d.Recipients())
	for i := range out {
		out[i] = d.Slice(i)
	}
	return out
}

// Slice cuts recipient i's ModeSlice wire alone, into a buffer of its
// own: AppendPart into one of PartSize(i) bytes.
func (d *DetachedRound) Slice(i int) []byte {
	return d.AppendPart(make([]byte, 0, d.PartSize(i)), i)
}

// PartSize is the length of recipient i's ModeSlice wire. With
// AppendPart it makes a round a relay.Parts: the broker names each
// accepted recipient's slice without cutting it, a direct push cuts it
// into the frame that carries it, and only a slice the relay keeps is
// cut into a buffer of its own — so recipients that are refused, and
// pushes, pay for no copy of the shared ciphertext of their own.
func (d *DetachedRound) PartSize(i int) int {
	return 1 + 4 + 4 + keys.ShareSize + roundEntry + 1 + 32*sliceProofLen(d.Recipients(), i) + keys.AEADNonceSize + len(d.ct)
}

// AppendPart appends recipient i's ModeSlice wire to dst, as append
// does. The Merkle tree is built on first use and kept: a DetachedRound
// is not safe for concurrent use.
func (d *DetachedRound) AppendPart(dst []byte, i int) []byte {
	if d.levels == nil {
		d.levels = d.sliceLevels()
	}
	dst = append(dst, byte(ModeSlice))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.Recipients()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(i))
	dst = append(append(dst, d.eph[:]...), d.entry(i)...)
	dst = appendSliceProof(dst, d.levels, i)
	return append(append(dst, d.gcmNonce...), d.ct...)
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

// parsedSlice is the wire-level view of one ModeSlice payload, a value
// whose byte fields are views of it.
type parsedSlice struct {
	n        int
	index    uint32
	eph      []byte // the round's ephemeral share
	entry    []byte // this recipient's key fingerprint ‖ wrap
	proof    []byte // the sibling path, 32 bytes a hash, leaf upward
	gcmNonce []byte
	ct       []byte
}

// sliceHead is a slice payload up to its proof hashes: count, index,
// ephemeral share, entry, proof length.
const sliceHead = 4 + 4 + keys.ShareSize + roundEntry + 1

// parseSliceWire reads a slice payload as views of it.
func parseSliceWire(payload []byte) (ps parsedSlice, err error) {
	if len(payload) < sliceHead {
		return ps, ErrEnvelope
	}
	n := binary.BigEndian.Uint32(payload[:4])
	ps.index = binary.BigEndian.Uint32(payload[4:8])
	if n == 0 || n > maxRoundRecipients || ps.index >= n {
		return ps, ErrEnvelope
	}
	ps.n = int(n)
	ps.eph = payload[8 : 8+keys.ShareSize : 8+keys.ShareSize]
	ps.entry = payload[8+keys.ShareSize : sliceHead-1 : sliceHead-1]
	pl := int(payload[sliceHead-1])
	payload = payload[sliceHead:]
	if pl > maxSliceProofLen || len(payload) < 32*pl+keys.AEADNonceSize {
		return ps, ErrEnvelope
	}
	ps.proof = payload[: 32*pl : 32*pl]
	payload = payload[32*pl:]
	ps.gcmNonce, ps.ct = payload[:keys.AEADNonceSize:keys.AEADNonceSize], payload[keys.AEADNonceSize:]
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
