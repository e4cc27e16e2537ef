package audit

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
)

// TestAppendReopenContinuesChain: a journal reopened after a clean
// close restores its chain state (seq and head) and appends link onto
// the recovered history — the whole directory verifies end to end.
func TestAppendReopenContinuesChain(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustRecord(t, j, ev(i))
	}
	head := j.Head()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := j2.Stats(); got.Recovered != 10 || got.Seq != 10 {
		t.Fatalf("recovered journal: %+v, want 10 recovered at seq 10", got)
	}
	if j2.Head() != head {
		t.Fatal("reopen did not restore the chain head")
	}
	if seq := mustRecord(t, j2, ev(10)); seq != 11 {
		t.Fatalf("append after reopen got seq %d, want 11", seq)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.LastSeq != 11 || rep.Events != 11 {
		t.Fatalf("verify: %+v (fault %v)", rep, rep.Fault)
	}
}

// TestLegacyPresenceReasonsVerify: journals written by brokers that ran
// as partners hold peer-up and peer-down records with the reason those
// brokers gave a partner's session beside "local" ones. The chain does
// not read reasons: such a journal still verifies, and appends after a
// reopen link onto it.
func TestLegacyPresenceReasonsVerify(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{
		{Kind: KindPeerUp, Peer: "urn:jxta:cbid-a", Op: "presence", Reason: "local"},
		{Kind: KindPeerUp, Peer: "urn:jxta:cbid-b", Op: "presence", Reason: "federated"},
		{Kind: KindPeerDown, Peer: "urn:jxta:cbid-b", Op: "presence", Reason: "federated"},
		{Kind: KindPeerDown, Peer: "urn:jxta:cbid-a", Op: "presence", Reason: "local"},
	} {
		mustRecord(t, j, e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustRecord(t, j2, Event{Kind: KindPeerUp, Peer: "urn:jxta:cbid-a", Op: "presence", Reason: "local"})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Events != 5 {
		t.Fatalf("verify: %+v (fault %v)", rep, rep.Fault)
	}
}

// TestCheckpointCadenceAndClose: with a signer, the chain seals every
// CheckpointEvery records and once more on Close; every checkpoint
// verifies against the trust store and attributes the broker by name.
func TestCheckpointCadenceAndClose(t *testing.T) {
	kp, chain, trust := signer(t)
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1, CheckpointEvery: 4, Signer: kp, Chain: chain})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustRecord(t, j, ev(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir, VerifyOptions{Trust: trust})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify fault: %v", rep.Fault)
	}
	// 10 events: sealed after records 4 and 8 (the checkpoint records
	// themselves advance the count), plus the final seal on Close.
	if rep.Checkpoints != 3 || rep.Events != 10 {
		t.Fatalf("got %d checkpoints over %d events, want 3 over 10", rep.Checkpoints, rep.Events)
	}
	if rep.Signer != "broker-1" {
		t.Fatalf("checkpoint signer %q, want broker-1", rep.Signer)
	}
	if rep.Unsealed != 0 {
		t.Fatalf("%d records unsealed after a clean Close, want 0", rep.Unsealed)
	}
}

// TestRotationKeepsHistory: outgrowing SegmentBytes starts fresh
// segments without deleting old ones, the chain links across the
// boundaries, and a reopen walks all of it.
func TestRotationKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mustRecord(t, j, ev(i))
	}
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments < 3 {
		t.Fatalf("expected rotation across >=3 segments, got %d", st.Segments)
	}
	segs, err := format.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != st.Segments {
		t.Fatalf("%d segment files on disk, stats says %d — rotation deleted history?", len(segs), st.Segments)
	}

	j2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen multi-segment journal: %v", err)
	}
	defer j2.Close()
	if got := j2.Stats().Recovered; got != 64 {
		t.Fatalf("recovered %d of 64 records", got)
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Segments != len(segs) {
		t.Fatalf("verify across segments: %+v (fault %v)", rep, rep.Fault)
	}
}

// TestTornTailTruncatedOnOpen: a crash mid-append leaves a torn final
// record; Open truncates it as a crash artifact and appends resume on
// the clean boundary.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustRecord(t, j, ev(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := TearRecord(dir); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.TornBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if st.Seq != 4 {
		t.Fatalf("recovered to seq %d, want 4 (the torn record is lost)", st.Seq)
	}
	if seq := mustRecord(t, j2, ev(99)); seq != 5 {
		t.Fatalf("append after torn-tail recovery got seq %d, want 5", seq)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("journal should verify clean after recovery, got %v", rep.Fault)
	}
}

// TestDamagedJournalRefusesAppend: damage that is not a torn tail (a
// flipped bit under intact framing) must fail Open with
// ErrJournalDamaged — appending onto a broken chain would launder it.
func TestDamagedJournalRefusesAppend(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustRecord(t, j, ev(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := FlipBit(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SyncInterval: -1}); !errors.Is(err, ErrJournalDamaged) {
		t.Fatalf("Open on damaged journal: %v, want ErrJournalDamaged", err)
	}
}

// TestStagedModeFlushes: with a positive SyncInterval appends are
// staged and the background flusher lands them on disk without any
// explicit Sync call.
func TestStagedModeFlushes(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustRecord(t, j, ev(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fi, err := os.Stat(filepath.Join(dir, format.Name(0))); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never wrote the staged batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Events != 20 {
		t.Fatalf("staged journal on disk: %+v (fault %v)", rep, rep.Fault)
	}
}

// TestNilJournalIsInert: every method is safe on a nil journal, so call
// sites stay unconditional (the SetAuditor-never-called deployment).
func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if seq := j.Record(ev(0)); seq != 0 {
		t.Fatalf("nil Record returned %d", seq)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 0 || (j.Stats() != Stats{}) || (j.Head() != [HashSize]byte{}) {
		t.Fatal("nil journal reported state")
	}
}

// TestOversizedEventClamped: an attacker padding a field must not make
// the audit path refuse to record — the field is truncated instead.
func TestOversizedEventClamped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, maxFieldLen*2)
	for i := range huge {
		huge[i] = 'x'
	}
	e := Event{Kind: KindOffense, Peer: string(huge), Op: "op", Reason: string(huge)}
	if seq := j.Record(e); seq != 1 {
		t.Fatalf("oversized event rejected (seq %d)", seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Events != 1 {
		t.Fatalf("clamped event journal: %+v (fault %v)", rep, rep.Fault)
	}
}

// One Record call is what every offense, refusal and auth outcome pays
// inline. On the staged path — one encode into a reused stage buffer,
// one SHA-256 to advance the chain head, one ring slot — it may not
// allocate: attribution must not cost garbage. With an fdatasync per
// append the price is the disk's, and only time is held.

func benchRecord(b *testing.B, syncInterval time.Duration) {
	j, err := Open(Options{
		Dir: b.TempDir(), SyncInterval: syncInterval,
		SegmentBytes: 1 << 30, CheckpointEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	event := Event{
		Kind: KindRateLimited, Peer: "urn:jxta:cbid-bench",
		Op: "publishAdv", Reason: "rate-limited", Trace: 0xfeed,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j.Record(event) == 0 {
			b.Fatal("append failed")
		}
	}
}

func BenchmarkRecordStaged(b *testing.B) { benchRecord(b, 50*time.Millisecond) }
func BenchmarkRecordSynced(b *testing.B) { benchRecord(b, 0) }

func TestGateRecordStaged(t *testing.T) { perfgate.Run(t, BenchmarkRecordStaged, 0, 5000) }
func TestGateRecordSynced(t *testing.T) {
	perfgate.Run(t, BenchmarkRecordSynced, perfgate.NoLimit, 20e6)
}

// TestHostileCheckpointPayloadRefusedAtFirstByte: a checkpoint payload is
// read back from a disk an adversary may have reached (internal/attack's
// disk-adversary suite), so anything that is not a checkpoint's bytes dies
// at its kind byte, with work bounded by that byte: a megabyte of XML
// entity definitions behind it costs nothing (attack/parser_test.go's
// bound, by allocation).
func TestHostileCheckpointPayloadRefusedAtFirstByte(t *testing.T) {
	bomb := []byte(`<!DOCTYPE c [` + strings.Repeat(`<!ENTITY x "&y;&y;&y;&y;&y;&y;&y;&y;">`, 1<<15) + `]><c>&x;</c>`)
	if _, err := parseCheckpoint(bomb); !errors.Is(err, errCheckpointForm) {
		t.Fatalf("hostile checkpoint payload = %v, want it refused as no checkpoint", err)
	}
	if a := testing.AllocsPerRun(10, func() { parseCheckpoint(bomb) }); a > 16 {
		t.Fatalf("refusing a %d-byte hostile payload allocates %v times: work beyond its first bytes", len(bomb), a)
	}
}

// TestCheckpointOfAnotherKindRefused: a checkpoint's bytes under any other
// kind byte — 3, a retired kind's, among them — are no checkpoint.
func TestCheckpointOfAnotherKindRefused(t *testing.T) {
	kp, chain, _ := signer(t)
	ckpt, err := buildCheckpoint(1, [HashSize]byte{}, time.Unix(1234567890, 0), kp, chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseCheckpoint(ckpt); err != nil {
		t.Fatalf("the checkpoint as built: %v", err)
	}
	for b := range 256 {
		if b == int(proto.KindCheckpoint) {
			continue
		}
		other := bytes.Clone(ckpt)
		other[0] = byte(b)
		if _, err := parseCheckpoint(other); !errors.Is(err, errCheckpointForm) {
			t.Fatalf("a checkpoint under kind byte %d = %v, want it refused as no checkpoint", b, err)
		}
	}
}
