// Audit-journal negatives: the tamper-evident security log's adversary
// is the disk itself — an attacker with write access to the journal
// directory (or a failing device) who can flip bits, truncate, reorder
// records and restore old snapshots. The contract under test: every
// such move is detected by offline verification, pinned to the exact
// first bad segment and byte offset, and the one move that is
// internally undetectable (rollback to a record boundary) is convicted
// by the externally remembered trust point. The flip side matters just
// as much: an untampered multi-segment journal, checkpoints and all,
// must verify clean end to end against the deployment's trust anchor.
package attack_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
)

type auditParty struct {
	kp    *keys.KeyPair
	chain []*cred.Credential
	trust *cred.TrustStore
}

// newAuditParty builds a broker signing identity chained to a fresh
// admin anchor.
func newAuditParty(t *testing.T) *auditParty {
	t.Helper()
	adminKP, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	adm, err := cred.SelfSigned(adminKP, "admin", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	brKP, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	brID, err := keys.CBID(brKP.Public())
	if err != nil {
		t.Fatal(err)
	}
	brCred, err := cred.Issue(adminKP, adm.Subject, brID, "broker-1", cred.RoleBroker, brKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := cred.NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	return &auditParty{kp: brKP, chain: []*cred.Credential{brCred}, trust: ts}
}

// sealedJournal writes a multi-segment, multi-checkpoint journal and
// closes it — the artifact the adversary attacks.
func sealedJournal(t *testing.T, p *auditParty, dir string, events int) {
	t.Helper()
	j, err := audit.Open(audit.Options{
		Dir: dir, SegmentBytes: 1 << 10,
		CheckpointEvery: 8, Signer: p.kp, Chain: p.chain,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		e := audit.Event{Kind: audit.KindRateLimited, Peer: "urn:jxta:cbid-mallory", Op: "publishAdv", Reason: "rate-limited", Trace: uint64(i)}
		if j.Record(e) == 0 {
			t.Fatal("append failed")
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditUntamperedVerifiesClean: the baseline the negatives hang
// off — a clean multi-segment journal passes full-chain verification,
// every checkpoint signature chains to the anchor, and the signer is
// attributed by certified name.
func TestAuditUntamperedVerifiesClean(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)
	rep, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean journal reported fault: %v", rep.Fault)
	}
	if rep.Segments < 2 {
		t.Fatalf("fixture too small: %d segments, need rotation exercised", rep.Segments)
	}
	if rep.Checkpoints < 2 || rep.Signer != "broker-1" {
		t.Fatalf("checkpoints %d signer %q, want >=2 signed by broker-1", rep.Checkpoints, rep.Signer)
	}
}

// TestAuditBitFlipPinpointed: one flipped bit under intact framing is
// caught (CRC layer) at exactly the damaged record's offset.
func TestAuditBitFlipPinpointed(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)
	loc, err := audit.FlipBit(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("bit flip not detected")
	}
	if rep.Fault.Segment != loc.Segment || rep.Fault.Offset != loc.Offset {
		t.Fatalf("fault at %s@%d, flipped record at %s@%d", rep.Fault.Segment, rep.Fault.Offset, loc.Segment, loc.Offset)
	}
	if rep.Fault.Seq != loc.Seq-1 {
		t.Fatalf("last good seq %d, want %d", rep.Fault.Seq, loc.Seq-1)
	}
}

// TestAuditTruncationPinpointed: a truncation mid-record fails to
// decode at exactly the torn record's offset.
func TestAuditTruncationPinpointed(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)
	loc, err := audit.TearRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("truncation not detected")
	}
	if rep.Fault.Segment != loc.Segment || rep.Fault.Offset != loc.Offset {
		t.Fatalf("fault at %s@%d, tear at %s@%d", rep.Fault.Segment, rep.Fault.Offset, loc.Segment, loc.Offset)
	}
}

// TestAuditReorderPinpointed: swapping two adjacent records preserves
// every byte and every CRC — only the chain (sequence + prev-hash
// continuity) convicts it, at the first displaced record.
func TestAuditReorderPinpointed(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)
	loc, err := audit.SwapRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("reorder not detected — CRCs alone cannot catch it, the chain must")
	}
	if rep.Fault.Segment != loc.Segment || rep.Fault.Offset != loc.Offset {
		t.Fatalf("fault at %s@%d, first displaced record at %s@%d", rep.Fault.Segment, rep.Fault.Offset, loc.Segment, loc.Offset)
	}
}

// TestAuditRollbackNeedsTrustPoint: truncating back to an earlier
// checkpoint leaves a journal that is internally self-consistent — it
// verifies clean in isolation (that is the attack) and is convicted
// only when held against the remembered head+seq, with the fault placed
// at the journal's end where the missing suffix should begin.
func TestAuditRollbackNeedsTrustPoint(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)

	before, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if !before.OK() {
		t.Fatalf("fixture: %v", before.Fault)
	}

	loc, err := audit.Rollback(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Without the trust point the rollback is invisible: everything on
	// disk is genuine broker output.
	alone, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if !alone.OK() {
		t.Fatalf("rollback should be internally consistent, got %v", alone.Fault)
	}
	if alone.LastSeq != loc.Seq || alone.LastSeq >= before.LastSeq {
		t.Fatalf("rollback fixture: ends at seq %d (checkpoint %d, originally %d)", alone.LastSeq, loc.Seq, before.LastSeq)
	}

	// With it, the verdict flips.
	rep, err := audit.Verify(dir, audit.VerifyOptions{
		Trust: p.trust, ExpectHead: before.Head[:], ExpectSeq: before.LastSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("rollback not detected against the remembered trust point")
	}
	if rep.Fault.Seq != loc.Seq {
		t.Fatalf("rollback fault after seq %d, want the checkpoint seq %d", rep.Fault.Seq, loc.Seq)
	}

	// ExpectSeq alone (no head) must also convict — the seq is the
	// cheaper trust point to remember.
	rep, err = audit.Verify(dir, audit.VerifyOptions{ExpectSeq: before.LastSeq})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("rollback not detected by ExpectSeq alone")
	}
}

// TestAuditForgedCheckpointRejected: rewriting history coherently —
// recomputing CRCs and the hash chain — still fails at the first
// checkpoint, because its signature covers the chain head and the
// adversary does not hold the broker key. This is the layer that makes
// the journal tamper-EVIDENT rather than merely checksummed.
func TestAuditForgedCheckpointRejected(t *testing.T) {
	p := newAuditParty(t)
	dir := t.TempDir()
	sealedJournal(t, p, dir, 48)

	// The adversary's best coherent rewrite: flip a bit, then "repair"
	// the journal by re-chaining everything after it. Simulate the
	// repair with a second journal whose first record differs — rather
	// than hand-rolling the re-chain — by writing a fresh journal with
	// an attacker key and checking its checkpoints fail the DEPLOYMENT
	// trust store even though the chain itself is perfectly consistent.
	attacker := newAuditParty(t)
	forged := t.TempDir()
	sealedJournal(t, attacker, forged, 16)

	// Structurally valid (attacker signed it properly)…
	structural, err := audit.Verify(forged, audit.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !structural.OK() {
		t.Fatalf("forged journal should be structurally valid: %v", structural.Fault)
	}
	// …but not attributable to the deployment's broker.
	rep, err := audit.Verify(forged, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("checkpoint signed by a non-deployment key verified against the deployment anchor")
	}
	if rep.Fault.Reason == "" {
		t.Fatal("fault carries no reason")
	}
}

// TestAuditCheckpointSignedByClientRejected: a client of the deployment
// holds a key and a credential that reach the anchor (client ← broker ←
// admin), but no broker key. A journal it checkpoints itself is
// structurally sound and fails the deployment's verification: a
// checkpoint's signer must be a broker.
func TestAuditCheckpointSignedByClientRejected(t *testing.T) {
	p := newAuditParty(t)
	malloryKP, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	malloryID, err := keys.CBID(malloryKP.Public())
	if err != nil {
		t.Fatal(err)
	}
	brCred := p.chain[0]
	clientCred, err := cred.Issue(p.kp, brCred.Subject, malloryID, "mallory", cred.RoleClient, malloryKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.trust.VerifyChain(time.Now(), clientCred, brCred); err != nil {
		t.Fatalf("test setup: mallory's chain does not reach the anchor: %v", err)
	}
	mallory := &auditParty{kp: malloryKP, chain: []*cred.Credential{clientCred, brCred}, trust: p.trust}
	dir := t.TempDir()
	sealedJournal(t, mallory, dir, 16)

	structural, err := audit.Verify(dir, audit.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !structural.OK() || structural.Checkpoints == 0 {
		t.Fatalf("test setup: mallory's journal is not structurally sound: %v", structural.Fault)
	}
	rep, err := audit.Verify(dir, audit.VerifyOptions{Trust: p.trust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("a journal checkpointed with a client's key verified against the anchor: %d checkpoints, signer %q", rep.Checkpoints, rep.Signer)
	}
}
