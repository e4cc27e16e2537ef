package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestJournalTamperModel is the property test mirroring the relay WAL's
// crash model: random interleavings of appends, clean closes, crashes
// (torn tails) and reopens must always leave a journal that verifies
// clean — and when the run ends with a disk tamper (bit flip, reorder,
// rollback), verification against the remembered trust point must
// detect it. Every iteration is an independent seeded run, so a failure
// reports a reproducible seed.
func TestJournalTamperModel(t *testing.T) {
	kp, chain, trust := signer(t)
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func() *Journal {
				j, err := Open(Options{
					Dir: dir, SegmentBytes: 1 << 10,
					CheckpointEvery: 8, Signer: kp, Chain: chain,
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return j
			}

			j := open()
			var modelSeq uint64 // lower bound: a crash can only lose the torn record
			for step := 0; step < 8; step++ {
				switch rng.Intn(3) {
				case 0, 1: // append a burst
					n := 1 + rng.Intn(12)
					for i := 0; i < n; i++ {
						mustRecord(t, j, ev(i))
					}
					modelSeq = j.Seq()
				case 2: // restart — cleanly half the time, by crash otherwise
					if err := j.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					if rng.Intn(2) == 0 {
						if _, err := TearRecord(dir); err != nil && !errors.Is(err, ErrNoRecords) {
							t.Fatalf("tear: %v", err)
						}
						// The torn record (at most one) is lost.
						if modelSeq > 0 {
							modelSeq--
						}
					}
					j = open()
					if got := j.Seq(); got < modelSeq {
						t.Fatalf("reopen lost history: seq %d, model lower bound %d", got, modelSeq)
					}
					modelSeq = j.Seq()
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("final close: %v", err)
			}

			// Remember the trust point the auditor would have scraped.
			rep, err := Verify(dir, VerifyOptions{Trust: trust})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("untampered journal must verify clean, got %v", rep.Fault)
			}
			expectHead, expectSeq := rep.Head, rep.LastSeq

			// Final act: tamper (or don't) and check the verdict.
			tampered := true
			switch rng.Intn(4) {
			case 0:
				tampered = false
			case 1:
				if _, err := FlipBit(dir); errors.Is(err, ErrNoRecords) {
					tampered = false
				} else if err != nil {
					t.Fatal(err)
				}
			case 2:
				if _, err := SwapRecords(dir); errors.Is(err, ErrNoRecords) {
					tampered = false
				} else if err != nil {
					t.Fatal(err)
				}
			case 3:
				if _, err := Rollback(dir); errors.Is(err, ErrNoRecords) {
					tampered = false
				} else if err != nil {
					t.Fatal(err)
				}
			}

			rep, err = Verify(dir, VerifyOptions{Trust: trust, ExpectHead: expectHead[:], ExpectSeq: expectSeq})
			if err != nil {
				t.Fatal(err)
			}
			if tampered && rep.OK() {
				t.Fatal("tampered journal verified clean")
			}
			if !tampered && !rep.OK() {
				t.Fatalf("untampered journal reported fault: %v", rep.Fault)
			}
		})
	}
}
