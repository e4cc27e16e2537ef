package main

import (
	"os"
	"path/filepath"
	"testing"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
)

// TestInitBrokerAuditVerifyRoundTrip: the files `admin init` and
// `admin broker` write are what a deployment runs on. A journal
// checkpointed with the broker's key and the credential `admin broker`
// wrote verifies clean under `admin audit verify -anchor DIR/anchor.cred`,
// the anchor `admin init` wrote.
func TestInitBrokerAuditVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := cmdInit([]string{"-dir", dir, "-bits", "1024"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBroker([]string{"-dir", dir, "-name", "broker-1"}); err != nil {
		t.Fatal(err)
	}
	pemBytes, err := os.ReadFile(filepath.Join(dir, "broker-1.key.pem"))
	if err != nil {
		t.Fatal(err)
	}
	kp, err := keys.ParseKeyPairPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "broker-1.cred"))
	if err != nil {
		t.Fatal(err)
	}
	brCred, err := cred.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(dir, "audit")
	j, err := audit.Open(audit.Options{Dir: journal, CheckpointEvery: 4, Signer: kp, Chain: []*cred.Credential{brCred}})
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		j.Record(audit.Event{Kind: audit.KindLogin, Peer: "urn:jxta:cbid-alice", Op: "secureLogin", Reason: "ok"})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdAuditVerify([]string{"-dir", journal, "-anchor", filepath.Join(dir, anchorFile)}); err != nil {
		t.Fatalf("audit verify -anchor: %v", err)
	}
	ts, err := cred.NewTrustStore(mustAnchor(t, filepath.Join(dir, anchorFile)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Verify(journal, audit.VerifyOptions{Trust: ts})
	if err != nil || !rep.OK() || rep.Checkpoints < 3 || rep.Signer != "broker-1" {
		t.Fatalf("journal under the anchor file: %+v, %v", rep, err)
	}
}

func mustAnchor(t *testing.T, path string) *cred.Credential {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
