package keys

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"jxtaoverlay/internal/perfgate"
)

// signedInfo is a document of the size and shape xdsig signs: an
// advertisement's SignedInfo, whose digest value is i's.
func signedInfo(i int) []byte {
	d := sha256.Sum256([]byte(fmt.Sprint(i)))
	return fmt.Appendf(nil, "<SignedInfo><CanonicalizationMethod>jxta-overlay-c14n-v1</CanonicalizationMethod>"+
		"<SignatureMethod>rsa-sha256-pkcs1v15</SignatureMethod><DigestMethod>sha256</DigestMethod>"+
		"<DigestValue>%x</DigestValue></SignedInfo>", d)
}

// A hit is the signature the private-key operation makes of the same
// document, and performs none.
func TestSignDocumentHitIsTheSignature(t *testing.T) {
	kp := mustKey(3)
	doc := signedInfo(0)
	first, err := kp.SignDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	signed := kp.SignCalls()
	hit, err := kp.SignDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := kp.SignCalls() - signed; n != 0 {
		t.Fatalf("a document signed before cost %d private-key operations", n)
	}
	digest := sha256.Sum256(doc)
	fresh, err := rsa.SignPKCS1v15(nil, kp.priv, crypto.SHA256, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, fresh) || !bytes.Equal(first, fresh) {
		t.Fatal("the memo answered bytes other than the document's signature")
	}
	if err := kp.Public().Verify(doc, hit); err != nil {
		t.Fatal(err)
	}
}

// A document one byte off is another document: it misses, and each
// signature verifies for its own document only.
func TestSignDocumentOneByteOffMisses(t *testing.T) {
	kp := mustKey(4)
	doc := signedInfo(0)
	sig, err := kp.SignDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(doc) / 2, len(doc) - 1} {
		other := bytes.Clone(doc)
		other[at] ^= 1
		signed := kp.SignCalls()
		otherSig, err := kp.SignDocument(other)
		if err != nil {
			t.Fatal(err)
		}
		if n := kp.SignCalls() - signed; n != 1 {
			t.Fatalf("byte %d flipped: %d private-key operations, want 1", at, n)
		}
		if err := kp.Public().Verify(other, otherSig); err != nil {
			t.Fatalf("byte %d flipped: its own signature: %v", at, err)
		}
		if kp.Public().Verify(other, sig) == nil || kp.Public().Verify(doc, otherSig) == nil {
			t.Fatalf("byte %d flipped: a signature verifies for the other document", at)
		}
	}
}

// The memo keeps at most docMemoCap signatures, and SignCalls counts the
// misses: first signatures, and documents signed again after eviction.
func TestSignDocumentCountsMissesOnly(t *testing.T) {
	kp := mustKey(5)
	docs := 3 * docMemoCap
	for i := 0; i < docs; i++ {
		if _, err := kp.SignDocument(signedInfo(i)); err != nil {
			t.Fatal(err)
		}
		if n := kp.docMemo().Len(); n > docMemoCap {
			t.Fatalf("memo holds %d signatures, capacity %d", n, docMemoCap)
		}
	}
	if n := kp.SignCalls(); n != uint64(docs) {
		t.Fatalf("%d distinct documents cost %d private-key operations", docs, n)
	}
	// The last docMemoCap are held; the first was evicted long ago.
	for i := docs - docMemoCap; i < docs; i++ {
		if _, err := kp.SignDocument(signedInfo(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := kp.SignCalls(); n != uint64(docs) {
		t.Fatalf("held documents signed again: %d private-key operations, want %d", n, docs)
	}
	if _, err := kp.SignDocument(signedInfo(0)); err != nil {
		t.Fatal(err)
	}
	if n := kp.SignCalls(); n != uint64(docs)+1 {
		t.Fatalf("an evicted document: %d private-key operations, want %d", n, docs+1)
	}
	// Sign never consults the memo: a message is signed every time.
	msg := signedInfo(docs - 1)
	for i := 0; i < 2; i++ {
		if _, err := kp.Sign(msg); err != nil {
			t.Fatal(err)
		}
	}
	if n := kp.SignCalls(); n != uint64(docs)+3 {
		t.Fatalf("two Signs of a memoized document: %d private-key operations, want %d", n, docs+3)
	}
}

// Goroutines that share a pair sign the same documents and documents of
// their own at once: every answer is its document's one signature, and
// the memo stays within its capacity.
func TestSignDocumentConcurrent(t *testing.T) {
	kp := mustKey(6)
	const workers, shared = 8, 4
	want := make([][]byte, shared)
	for i := range want {
		digest := sha256.Sum256(signedInfo(i))
		sig, err := rsa.SignPKCS1v15(nil, kp.priv, crypto.SHA256, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sig
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < shared; i++ {
					sig, err := kp.SignDocument(signedInfo(i))
					if err != nil || !bytes.Equal(sig, want[i]) {
						errs <- fmt.Errorf("worker %d, shared document %d: err=%v or another signature", w, i, err)
						return
					}
				}
				own := signedInfo(1000 + 100*w + round)
				sig, err := kp.SignDocument(own)
				if err == nil {
					err = kp.Public().Verify(own, sig)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d, own document %d: %v", w, round, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := kp.docMemo().Len(); n > docMemoCap {
		t.Fatalf("memo holds %d signatures, capacity %d", n, docMemoCap)
	}
}

// BenchmarkSignDocumentHit is a republished advertisement's signature:
// the digest of its SignedInfo and a memo lookup.
func BenchmarkSignDocumentHit(b *testing.B) {
	kp := testKeys.a
	doc := signedInfo(0)
	if _, err := kp.SignDocument(doc); err != nil {
		b.Fatal(err)
	}
	signed := kp.SignCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kp.SignDocument(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := kp.SignCalls() - signed; n != 0 {
		b.Fatalf("%d private-key operations in the loop", n)
	}
}

func TestGateSignDocumentHit(t *testing.T) { perfgate.Run(t, BenchmarkSignDocumentHit, 0, 2000) }
