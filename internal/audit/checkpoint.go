package audit

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// A checkpoint's payload is a signed form of proto's codec (SECURITY.md,
// "Audit trust model"): KindCheckpoint ‖ seq u64 ‖ records u64 ‖ chain
// head ‖ time ‖ the signer's credential chain (one field of
// cred.AppendChain) ‖ signature over checkpointLabel and every byte in
// front of its length.

// checkpointLabel separates a checkpoint signature from every other one.
const checkpointLabel = "jxta-overlay/audit-checkpoint/v1"

var errCheckpointForm = errors.New("audit: checkpoint payload malformed")

// checkpointClaim is a parsed (not yet verified) checkpoint payload; chain,
// signed and sig are views of the payload.
type checkpointClaim struct {
	Seq     uint64
	Records uint64
	Head    [HashSize]byte
	Time    time.Time
	chain   []byte // as cred.AppendChain wrote it, leaf first
	signed  []byte // every byte in front of the signature's length
	sig     []byte
}

// appendBody appends what the checkpoint's signature covers, less the
// label.
func (c *checkpointClaim) appendBody(dst []byte) []byte {
	dst = append(dst, byte(proto.KindCheckpoint))
	dst = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, c.Seq), c.Records)
	dst = proto.AppendTime(append(dst, c.Head[:]...), c.Time)
	return proto.AppendField(dst, c.chain)
}

// buildCheckpoint produces the signed payload of a checkpoint record at
// sequence seq: an attestation that after the first seq-1 records the
// hash chain's head was head, signed by kp, whose credential chain is
// chain.
func buildCheckpoint(seq uint64, head [HashSize]byte, ts time.Time, kp *keys.KeyPair, chain []*cred.Credential) ([]byte, error) {
	if len(chain) == 0 || !chain[0].Key.SameIdentity(kp.Public()) {
		return nil, errors.New("audit: sign checkpoint: the chain's leaf does not certify the signing key")
	}
	chainRaw, err := cred.AppendChain(nil, chain...)
	if err == nil && len(chainRaw) > proto.MaxField {
		err = proto.ErrFieldTooLong
	}
	if err != nil {
		return nil, fmt.Errorf("audit: sign checkpoint: credential chain: %w", err)
	}
	c := checkpointClaim{Seq: seq, Records: seq - 1, Head: head, Time: ts, chain: chainRaw}
	signed := c.appendBody([]byte(checkpointLabel))
	sig, err := kp.Sign(signed)
	if err != nil {
		return nil, fmt.Errorf("audit: sign checkpoint: %w", err)
	}
	return proto.AppendField(signed[len(checkpointLabel):], sig), nil
}

// parseCheckpoint reads a payload as buildCheckpoint writes it, whole.
// The payload is read back from a disk an adversary may have reached:
// anything but a checkpoint is refused at its kind byte.
func parseCheckpoint(payload []byte) (*checkpointClaim, error) {
	if len(payload) == 0 || payload[0] != byte(proto.KindCheckpoint) {
		return nil, errCheckpointForm
	}
	in := proto.NewReader(payload[1:])
	c := &checkpointClaim{Seq: in.Uint(8), Records: in.Uint(8)}
	copy(c.Head[:], in.Bytes(HashSize))
	c.Time, c.chain = in.Time(), in.Field()
	c.signed = payload[:len(payload)-in.Len()]
	c.sig = in.Field()
	if !in.Done() || len(c.sig) == 0 {
		return nil, errCheckpointForm
	}
	return c, nil
}

// verify checks the claim against the verifier's independently computed
// chain state at the checkpoint's position, then the signature under the
// chain's leaf key. With a trust store it also requires the chain to reach
// one of its anchors, the leaf's CBID to bind its key, and the leaf to be
// a broker's: a client's credential reaches the anchor too. It returns the
// signer's leaf credential for attribution.
func (c *checkpointClaim) verify(rec Record, computedHead [HashSize]byte, ts *cred.TrustStore, now time.Time) (*cred.Credential, error) {
	if c.Seq != rec.Seq {
		return nil, fmt.Errorf("audit: checkpoint claims seq %d but sits at seq %d", c.Seq, rec.Seq)
	}
	if c.Records != rec.Seq-1 {
		return nil, fmt.Errorf("audit: checkpoint claims %d records before seq %d", c.Records, rec.Seq)
	}
	if subtle.ConstantTimeCompare(c.Head[:], computedHead[:]) != 1 {
		return nil, fmt.Errorf("audit: checkpoint chain head does not match the records before it")
	}
	chain, err := cred.ParseChain(c.chain)
	if err != nil {
		return nil, fmt.Errorf("audit: checkpoint signer chain: %w", err)
	}
	leaf := chain[0]
	if leaf.Key.Verify(append([]byte(checkpointLabel), c.signed...), c.sig) != nil {
		return nil, errors.New("audit: checkpoint signature: invalid")
	}
	if ts == nil {
		return leaf, nil
	}
	if err := ts.VerifyChain(now, chain...); err != nil {
		return nil, fmt.Errorf("audit: checkpoint signature: %w", err)
	}
	if keys.IsCBID(leaf.Subject) && leaf.VerifyCBID() != nil {
		return nil, fmt.Errorf("audit: checkpoint signature: signer %q does not own its key", leaf.Subject)
	}
	if leaf.Role != cred.RoleBroker {
		return nil, fmt.Errorf("audit: checkpoint signature: signer %q is a %s, not a broker", leaf.SubjectName, leaf.Role)
	}
	return leaf, nil
}
